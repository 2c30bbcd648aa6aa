// Package minidb implements a small in-memory relational database engine
// with a SQL subset, standing in for the PostgreSQL 7.4.1 server used by
// the paper's Data Layer.
//
// The engine supports CREATE TABLE / DROP TABLE, INSERT, DELETE, and SELECT
// with projection, DISTINCT, WHERE expressions (comparisons, LIKE, AND, OR,
// NOT, parentheses), inner JOIN ... ON, ORDER BY, LIMIT, and the aggregates
// COUNT / COUNT(DISTINCT) / SUM / AVG / MIN / MAX. That is the full query
// surface the PPerfGrid mapping-layer wrappers require, and every wrapper
// query is submitted as SQL text so the parse/plan/scan cost the paper's
// Table 4 attributes to the Mapping Layer is actually paid per query.
//
// The database is safe for concurrent use: SELECTs take a read lock, DDL
// and DML take a write lock.
package minidb

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	}
	return "UNKNOWN"
}

// Value is one cell value.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Text  string
}

// Constructors.
func Null() Value           { return Value{Kind: KindNull} }
func Int(v int64) Value     { return Value{Kind: KindInt, Int: v} }
func Float(v float64) Value { return Value{Kind: KindFloat, Float: v} }
func Text(s string) Value   { return Value{Kind: KindText, Text: s} }
func Bool(b bool) Value { // booleans are stored as 0/1 integers
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Truthy reports whether the value counts as true in a WHERE clause:
// nonzero numbers and nonempty text are true, NULL is false.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindInt:
		return v.Int != 0
	case KindFloat:
		return v.Float != 0
	case KindText:
		return v.Text != ""
	}
	return false
}

// AsFloat returns the numeric value of v, converting ints and parsing
// numeric text. The second result reports convertibility.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.Text), 64)
		return f, err == nil
	}
	return 0, false
}

// String renders the value for result display. NULL renders as "NULL".
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindText:
		return v.Text
	}
	return "NULL"
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare numerically (ints and floats intermix, NaN ordered as in
// cmpFloat); text compares lexicographically; numbers sort before text
// when kinds are incomparable.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	aNum := a.Kind == KindInt || a.Kind == KindFloat
	bNum := b.Kind == KindInt || b.Kind == KindFloat
	switch {
	case aNum && bNum:
		if a.Kind == KindInt && b.Kind == KindInt {
			switch {
			case a.Int < b.Int:
				return -1
			case a.Int > b.Int:
				return 1
			}
			return 0
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmpFloat(af, bf)
	case !aNum && !bNum:
		return strings.Compare(a.Text, b.Text)
	case aNum:
		return -1
	default:
		return 1
	}
}

// cmpFloat orders floats the way PostgreSQL's float8 does: -0 equals 0,
// NaN equals NaN and sorts above every other number. That keeps Compare
// a total order, so the hash index (one key for every NaN), the ordered
// index's sort, zone maps and the naive executor all agree on which rows
// a predicate over a NaN-holding column matches.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	aNaN, bNaN := a != a, b != b
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	}
	return -1
}

// Equal reports whether two values compare equal under Compare. Equality
// between a numeric text and a number succeeds when the text parses, so
// `WHERE runid = '5'` matches integer columns the way the paper's SQL
// examples expect.
func Equal(a, b Value) bool {
	if a.Kind == KindText != (b.Kind == KindText) {
		// Mixed text/number: try numeric comparison.
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if aok && bok {
			return cmpFloat(af, bf) == 0
		}
		return false
	}
	return Compare(a, b) == 0
}

// ColumnType is a declared column type.
type ColumnType uint8

// Column types.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeText
)

func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	default:
		return "TEXT"
	}
}

// Coerce converts v to the column type where possible; incompatible values
// are stored as-is (the engine is dynamically typed like SQLite).
func (t ColumnType) Coerce(v Value) Value {
	if v.IsNull() {
		return v
	}
	switch t {
	case TypeInt:
		switch v.Kind {
		case KindInt:
			return v
		case KindFloat:
			return Int(int64(v.Float))
		case KindText:
			if n, err := strconv.ParseInt(strings.TrimSpace(v.Text), 10, 64); err == nil {
				return Int(n)
			}
		}
	case TypeFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f)
		}
	case TypeText:
		return Text(v.String())
	}
	return v
}

// Column is one column definition.
type Column struct {
	Name string
	Type ColumnType
}

// Row is one table row.
type Row []Value

// clone returns a copy of the row.
func (r Row) clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one char)
// wildcards, case-sensitive like PostgreSQL.
func likeMatch(pattern, s string) bool {
	return likeRec(pattern, s)
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// Error is the error type returned by the engine, carrying the failing SQL
// fragment where available.
type Error struct {
	Op  string // "parse", "plan", "exec"
	Msg string
}

func (e *Error) Error() string { return "minidb: " + e.Op + ": " + e.Msg }

func errf(op, format string, args ...any) error {
	return &Error{Op: op, Msg: fmt.Sprintf(format, args...)}
}
