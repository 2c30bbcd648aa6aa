package minidb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ResultSet is the outcome of a SELECT.
type ResultSet struct {
	Columns []string
	Rows    [][]Value
}

// Strings renders every cell through Value.String, the shape mapping-layer
// wrappers consume.
func (rs *ResultSet) Strings() [][]string {
	out := make([][]string, len(rs.Rows))
	for i, row := range rs.Rows {
		s := make([]string, len(row))
		for j, v := range row {
			s[j] = v.String()
		}
		out[i] = s
	}
	return out
}

// Column returns the values of the named output column.
func (rs *ResultSet) Column(name string) ([]Value, error) {
	for i, c := range rs.Columns {
		if c == name {
			out := make([]Value, len(rs.Rows))
			for j, row := range rs.Rows {
				out[j] = row[i]
			}
			return out, nil
		}
	}
	return nil, errf("exec", "no output column %q", name)
}

// qcol is one column of the row stream, qualified by its table alias.
type qcol struct {
	qualifier string
	name      string
}

// env resolves column references against one concrete row, and binds
// positional parameters for prepared statements.
type env struct {
	cols []qcol
	row  Row
	args []Value
}

func (e *env) resolve(ref *ColumnRef) (int, error) {
	found := -1
	for i, c := range e.cols {
		if c.name != ref.Name {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.qualifier, ref.Table) {
			continue
		}
		if found >= 0 {
			return 0, errf("exec", "ambiguous column %q", ref.Name)
		}
		found = i
	}
	if found < 0 {
		if ref.Table != "" {
			return 0, errf("exec", "unknown column %s.%s", ref.Table, ref.Name)
		}
		return 0, errf("exec", "unknown column %q", ref.Name)
	}
	return found, nil
}

// eval evaluates a non-aggregate expression against the environment.
func eval(e Expr, env *env) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Param:
		if env == nil || x.Pos >= len(env.args) {
			return Value{}, errf("exec", "parameter ?%d is not bound", x.Pos+1)
		}
		return env.args[x.Pos], nil
	case *ColumnRef:
		if env == nil {
			return Value{}, errf("exec", "column reference %q outside a row context", x.Name)
		}
		i, err := env.resolve(x)
		if err != nil {
			return Value{}, err
		}
		return env.row[i], nil
	case *Unary:
		v, err := eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "-" {
			switch v.Kind {
			case KindInt:
				v.Int = -v.Int
				return v, nil
			case KindFloat:
				v.Float = -v.Float
				return v, nil
			case KindNull:
				return v, nil
			}
			return Value{}, errf("exec", "unary - requires a numeric value, got %s", v.Kind)
		}
		return Bool(!v.Truthy()), nil
	case *IsNull:
		v, err := eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() != x.Negate), nil
	case *InList:
		v, err := eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		match := false
		for _, item := range x.List {
			iv, err := eval(item, env)
			if err != nil {
				return Value{}, err
			}
			if Equal(v, iv) {
				match = true
				break
			}
		}
		return Bool(match != x.Negate), nil
	case *Between:
		v, err := eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		lo, err := eval(x.Lo, env)
		if err != nil {
			return Value{}, err
		}
		hi, err := eval(x.Hi, env)
		if err != nil {
			return Value{}, err
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		return Bool(in != x.Negate), nil
	case *Binary:
		return evalBinary(x, env)
	case *Aggregate:
		return Value{}, errf("exec", "aggregate %s in row context", x.Func)
	}
	return Value{}, errf("exec", "unknown expression %T", e)
}

func evalBinary(x *Binary, env *env) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := eval(x.L, env)
		if err != nil {
			return Value{}, err
		}
		if !l.Truthy() {
			return Bool(false), nil
		}
		r, err := eval(x.R, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(r.Truthy()), nil
	case "OR":
		l, err := eval(x.L, env)
		if err != nil {
			return Value{}, err
		}
		if l.Truthy() {
			return Bool(true), nil
		}
		r, err := eval(x.R, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(r.Truthy()), nil
	}
	l, err := eval(x.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(x.R, env)
	if err != nil {
		return Value{}, err
	}
	// SQL three-valued logic simplified: comparisons with NULL are false.
	if l.IsNull() || r.IsNull() {
		return Bool(false), nil
	}
	switch x.Op {
	case "=":
		return Bool(Equal(l, r)), nil
	case "!=":
		return Bool(!Equal(l, r)), nil
	case "<":
		return Bool(Compare(l, r) < 0), nil
	case "<=":
		return Bool(Compare(l, r) <= 0), nil
	case ">":
		return Bool(Compare(l, r) > 0), nil
	case ">=":
		return Bool(Compare(l, r) >= 0), nil
	case "LIKE":
		return Bool(likeMatch(r.String(), l.String())), nil
	}
	return Value{}, errf("exec", "unknown operator %q", x.Op)
}

// hasAggregate reports whether any select item contains an aggregate call.
func hasAggregate(items []SelectItem) bool {
	for _, it := range items {
		if exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *Aggregate:
		return true
	case *Binary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *Unary:
		return exprHasAggregate(x.X)
	case *IsNull:
		return exprHasAggregate(x.X)
	case *Between:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Lo) || exprHasAggregate(x.Hi)
	case *InList:
		if exprHasAggregate(x.X) {
			return true
		}
		for _, it := range x.List {
			if exprHasAggregate(it) {
				return true
			}
		}
	}
	return false
}

// runSelectNaive executes a SELECT against the (already locked) database
// with the reference full-materialization nested-loop strategy. The
// planned pipeline in plan.go is the production path; this executor is
// retained as the semantics oracle the differential tests compare
// against (see Database.QueryNaive).
func (db *Database) runSelectNaive(st *SelectStmt, args []Value) (*ResultSet, error) {
	base, err := db.table(st.From)
	if err != nil {
		return nil, err
	}
	baseQual := st.Alias
	if baseQual == "" {
		baseQual = st.From
	}
	cols := make([]qcol, 0, len(base.Columns))
	for _, c := range base.Columns {
		cols = append(cols, qcol{qualifier: baseQual, name: c.Name})
	}

	// Materialize the row stream (scan + optional nested-loop join + filter).
	var rows []Row
	e := &env{cols: cols, args: args}
	bv := base.view()
	if st.Join == nil {
		total := bv.total()
		for i := 0; i < total; i++ {
			r := bv.row(i)
			e.row = r
			ok, err := passWhere(st.Where, e)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, r)
			}
		}
		if bv.err != nil {
			return nil, bv.err
		}
	} else {
		right, err := db.table(st.Join.Table)
		if err != nil {
			return nil, err
		}
		rightQual := st.Join.Alias
		if rightQual == "" {
			rightQual = st.Join.Table
		}
		for _, c := range right.Columns {
			cols = append(cols, qcol{qualifier: rightQual, name: c.Name})
		}
		e.cols = cols
		combined := make(Row, len(cols))
		rv := right.view()
		nLeft, nRight := bv.total(), rv.total()
		for li := 0; li < nLeft; li++ {
			lr := bv.row(li)
			copy(combined, lr)
			for ri := 0; ri < nRight; ri++ {
				rr := rv.row(ri)
				copy(combined[len(lr):], rr)
				e.row = combined
				ok, err := passWhere(st.Join.On, e)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				ok, err = passWhere(st.Where, e)
				if err != nil {
					return nil, err
				}
				if ok {
					rows = append(rows, combined.clone())
				}
			}
		}
		if bv.err != nil {
			return nil, bv.err
		}
		if rv.err != nil {
			return nil, rv.err
		}
	}

	if !st.Star && hasAggregate(st.Items) {
		return runAggregates(st, e.cols, rows)
	}

	// Projection with ORDER BY keys computed from the input row.
	type projRow struct {
		out  []Value
		keys []Value
	}
	var projected []projRow
	outCols := outputColumns(st, e.cols)
	for _, r := range rows {
		e.row = r
		var out []Value
		if st.Star {
			out = r.clone()
		} else {
			out = make([]Value, len(st.Items))
			for i, it := range st.Items {
				v, err := eval(it.Expr, e)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
		}
		keys := make([]Value, len(st.OrderBy))
		for i, k := range st.OrderBy {
			v, err := eval(k.Expr, e)
			if err != nil {
				// Allow ORDER BY to reference an output alias.
				v, err = aliasValue(k.Expr, st.Items, out)
				if err != nil {
					return nil, err
				}
			}
			keys[i] = v
		}
		projected = append(projected, projRow{out: out, keys: keys})
	}

	if st.Distinct {
		seen := make(map[string]bool, len(projected))
		kept := projected[:0]
		for _, pr := range projected {
			k := rowKey(pr.out)
			if seen[k] {
				continue
			}
			seen[k] = true
			kept = append(kept, pr)
		}
		projected = kept
	}

	if len(st.OrderBy) > 0 {
		sort.SliceStable(projected, func(i, j int) bool {
			for k, key := range st.OrderBy {
				c := Compare(projected[i].keys[k], projected[j].keys[k])
				if c == 0 {
					continue
				}
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	if st.Limit >= 0 && len(projected) > st.Limit {
		projected = projected[:st.Limit]
	}

	rs := &ResultSet{Columns: outCols, Rows: make([][]Value, len(projected))}
	for i, pr := range projected {
		rs.Rows[i] = pr.out
	}
	return rs, nil
}

// aliasValue resolves an ORDER BY expression against the output row by
// alias or projected column name.
func aliasValue(e Expr, items []SelectItem, out []Value) (Value, error) {
	ref, ok := e.(*ColumnRef)
	if !ok || ref.Table != "" {
		return Value{}, errf("exec", "cannot evaluate ORDER BY expression")
	}
	for i, it := range items {
		if it.Alias == ref.Name {
			return out[i], nil
		}
	}
	return Value{}, errf("exec", "unknown ORDER BY column %q", ref.Name)
}

func passWhere(where Expr, e *env) (bool, error) {
	if where == nil {
		return true, nil
	}
	v, err := eval(where, e)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

// outputColumns derives the result column names.
func outputColumns(st *SelectStmt, cols []qcol) []string {
	if st.Star {
		// Qualify duplicated names so joined outputs stay unambiguous.
		count := map[string]int{}
		for _, c := range cols {
			count[c.name]++
		}
		out := make([]string, len(cols))
		for i, c := range cols {
			if count[c.name] > 1 {
				out[i] = c.qualifier + "." + c.name
			} else {
				out[i] = c.name
			}
		}
		return out
	}
	out := make([]string, len(st.Items))
	for i, it := range st.Items {
		switch {
		case it.Alias != "":
			out[i] = it.Alias
		default:
			out[i] = exprName(it.Expr, i)
		}
	}
	return out
}

func exprName(e Expr, i int) string {
	switch x := e.(type) {
	case *ColumnRef:
		return x.Name
	case *Aggregate:
		if x.Star {
			return strings.ToLower(x.Func)
		}
		return strings.ToLower(x.Func)
	default:
		return fmt.Sprintf("column%d", i+1)
	}
}

// rowKey renders a row's DISTINCT key: per value its kind byte, the
// decimal length of its rendering, ':', and the rendering, so no text
// content can make two different rows render alike.
func rowKey(row []Value) string {
	var b strings.Builder
	for _, v := range row {
		s := v.String()
		b.WriteByte(byte(v.Kind))
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

func errMixedAggregates() error {
	return errf("exec", "select list mixes aggregates and plain columns (GROUP BY is not supported)")
}

// runAggregates evaluates an all-aggregate select list over the
// materialized row stream, one aggregate at a time. It is the naive
// executor's path and the oracle for the planned accumulators (agg.go).
func runAggregates(st *SelectStmt, cols []qcol, rows []Row) (*ResultSet, error) {
	out := make([]Value, len(st.Items))
	names := outputColumns(st, cols)
	e := &env{cols: cols}
	for i, it := range st.Items {
		agg, ok := it.Expr.(*Aggregate)
		if !ok {
			return nil, errMixedAggregates()
		}
		v, err := computeAggregate(agg, e, rows)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return &ResultSet{Columns: names, Rows: [][]Value{out}}, nil
}

func computeAggregate(agg *Aggregate, e *env, rows []Row) (Value, error) {
	if agg.Star {
		return Int(int64(len(rows))), nil
	}
	var vals []Value
	for _, r := range rows {
		e.row = r
		v, err := eval(agg.Arg, e)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		vals = append(vals, v)
	}
	if agg.Distinct {
		seen := make(map[string]bool, len(vals))
		kept := vals[:0]
		for _, v := range vals {
			k := string(byte(v.Kind)) + v.String()
			if seen[k] {
				continue
			}
			seen[k] = true
			kept = append(kept, v)
		}
		vals = kept
	}
	switch agg.Func {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if agg.Func == "MIN" && c < 0 || agg.Func == "MAX" && c > 0 {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return Value{}, errf("exec", "%s over non-numeric value %q", agg.Func, v.String())
			}
			if v.Kind != KindInt {
				allInt = false
			}
			sum += f
		}
		if agg.Func == "AVG" {
			return Float(sum / float64(len(vals))), nil
		}
		if allInt {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	}
	return Value{}, errf("exec", "unknown aggregate %q", agg.Func)
}
