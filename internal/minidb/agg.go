package minidb

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
)

// This file is the streaming half of the planned SELECT path's aggregate
// and DISTINCT handling. Aggregates fold each surviving row into a typed
// accumulator straight off the row stream, and DISTINCT looks each
// projected row up in a seen-set before anything is copied, so both
// allocate per distinct value kept, never per row scanned. The naive
// executor (runAggregates / computeAggregate in exec.go) keeps the
// materialize-then-reduce formulation as the differential oracle. The
// index-distinct path at the end of the file answers single-column
// DISTINCT and COUNT(DISTINCT) from hash-index buckets with no row
// stream at all.

// boundExpr is an expression prepared for one row shape: a bare column
// reference that resolves uniquely is bound to its row position once,
// so evaluation is an index instead of env.resolve's scan over the
// column names. Anything else goes through eval, which reports errors
// exactly as the naive executor does.
type boundExpr struct {
	e   Expr
	col int // row position, or -1: evaluate e
}

func bindExpr(e Expr, cols []qcol) boundExpr {
	if ref, ok := e.(*ColumnRef); ok {
		if idx, found := resolveStatic(ref, cols); found == 1 {
			return boundExpr{e: e, col: idx}
		}
	}
	return boundExpr{e: e, col: -1}
}

func (b boundExpr) eval(e *env) (Value, error) {
	if b.col >= 0 {
		return e.row[b.col], nil
	}
	return eval(b.e, e)
}

// valueSet is an aggregate DISTINCT's seen-set. It identifies values
// the way the naive executor's kind-plus-rendering key does: kinds never
// mix (Int 1, Float 1 and Text "1" are three values), floats compare by
// bit pattern (so -0 and 0 stay apart) except that every NaN is one
// value. One map per kind keeps each lookup on the runtime's 64-bit or
// string fast path.
type valueSet struct {
	ints, floats map[uint64]struct{}
	texts        map[string]struct{}
}

// add records the non-NULL value v, reporting whether it was new.
func (s *valueSet) add(v Value) bool {
	switch v.Kind {
	case KindInt:
		return addUint(&s.ints, uint64(v.Int))
	case KindFloat:
		return addUint(&s.floats, floatKeyBits(v.Float))
	}
	if s.texts == nil {
		s.texts = make(map[string]struct{})
	}
	if _, dup := s.texts[v.Text]; dup {
		return false
	}
	s.texts[v.Text] = struct{}{}
	return true
}

func addUint(m *map[uint64]struct{}, k uint64) bool {
	if *m == nil {
		*m = make(map[uint64]struct{})
	}
	if _, dup := (*m)[k]; dup {
		return false
	}
	(*m)[k] = struct{}{}
	return true
}

var nanBits = math.Float64bits(math.NaN())

func floatKeyBits(f float64) uint64 {
	if f != f {
		return nanBits
	}
	return math.Float64bits(f)
}

// sameValue reports whether a and b are one value under DISTINCT: the
// identity valueSet and appendValueKey implement.
func sameValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInt:
		return a.Int == b.Int
	case KindFloat:
		return floatKeyBits(a.Float) == floatKeyBits(b.Float)
	case KindText:
		return a.Text == b.Text
	}
	return true
}

// appendValueKey appends the DISTINCT key of one value: its kind byte,
// then a fixed-width payload for numbers or a length-prefixed one for
// text, so a concatenation of keys decodes unambiguously and two rows
// share a key only if every value pair shares one.
func appendValueKey(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Int))
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, floatKeyBits(v.Float))
	case KindText:
		b = binary.AppendUvarint(b, uint64(len(v.Text)))
		b = append(b, v.Text...)
	}
	return b
}

// distinctSet is a row DISTINCT's seen-set. The key is built in a reused
// buffer and looked up without conversion, so a duplicate costs no
// allocation; only a new row's key is copied into the map.
type distinctSet struct {
	seen map[string]struct{}
	buf  []byte
}

func newDistinctSet() *distinctSet {
	return &distinctSet{seen: make(map[string]struct{})}
}

// addKey records the key in buf, reporting whether it was new.
func (s *distinctSet) addKey() bool {
	if _, dup := s.seen[string(s.buf)]; dup {
		return false
	}
	s.seen[string(s.buf)] = struct{}{}
	return true
}

// add records row, reporting whether it was new.
func (s *distinctSet) add(row []Value) bool {
	s.buf = s.buf[:0]
	for _, v := range row {
		s.buf = appendValueKey(s.buf, v)
	}
	return s.addKey()
}

// aggSpec is one select-list aggregate, planned for the plan's row shape.
type aggSpec struct {
	agg *Aggregate
	arg boundExpr
}

// aggAcc accumulates one aggregate over a row stream. Its state is what
// the result needs and nothing more: a count, a float sum with an
// all-int flag, the running MIN/MAX, and for DISTINCT the set of values
// already fed.
type aggAcc struct {
	spec   *aggSpec
	n      int64 // rows (COUNT(*)) or non-NULL values fed
	sum    float64
	allInt bool
	best   Value
	seen   *valueSet // DISTINCT only

	// err is the first argument-evaluation error and wins over valErr,
	// the first non-numeric SUM/AVG input: the oracle evaluates the
	// argument over every row before it sums anything.
	err    error
	valErr error
}

func newAggAcc(spec *aggSpec) aggAcc {
	a := aggAcc{spec: spec, allInt: true}
	if spec.agg.Distinct {
		a.seen = new(valueSet)
	}
	return a
}

// feed folds the row in e into the accumulator.
func (a *aggAcc) feed(e *env) {
	if a.err != nil {
		return
	}
	agg := a.spec.agg
	if agg.Star {
		a.n++
		return
	}
	v, err := a.spec.arg.eval(e)
	if err != nil {
		a.err = err
		return
	}
	if v.IsNull() {
		return
	}
	if a.seen != nil && !a.seen.add(v) {
		return
	}
	a.n++
	switch agg.Func {
	case "MIN", "MAX":
		// Strict comparisons: the first of equal values wins.
		if a.n == 1 {
			a.best = v
		} else if c := Compare(v, a.best); agg.Func == "MIN" && c < 0 || agg.Func == "MAX" && c > 0 {
			a.best = v
		}
	case "SUM", "AVG":
		if a.valErr != nil {
			return
		}
		f, ok := v.AsFloat()
		if !ok {
			a.valErr = errf("exec", "%s over non-numeric value %q", agg.Func, v.String())
			return
		}
		if v.Kind != KindInt {
			a.allInt = false
		}
		a.sum += f
	}
}

// result finalizes the accumulator.
func (a *aggAcc) result() (Value, error) {
	if a.err != nil {
		return Value{}, a.err
	}
	agg := a.spec.agg
	if agg.Star {
		return Int(a.n), nil
	}
	switch agg.Func {
	case "COUNT":
		return Int(a.n), nil
	case "MIN", "MAX":
		if a.n == 0 {
			return Null(), nil
		}
		return a.best, nil
	case "SUM", "AVG":
		if a.valErr != nil {
			return Value{}, a.valErr
		}
		if a.n == 0 {
			return Null(), nil
		}
		if agg.Func == "AVG" {
			return Float(a.sum / float64(a.n)), nil
		}
		if a.allInt {
			return Int(int64(a.sum)), nil
		}
		return Float(a.sum), nil
	}
	return Value{}, errf("exec", "unknown aggregate %q", agg.Func)
}

// runAggregatePlan folds the row stream into the plan's accumulators and
// returns the one-row result. Only the select items before the first
// non-aggregate item are accumulated: the oracle reports items in
// select-list order, so that item's "mixes" error is reached only after
// every earlier aggregate finished without error.
func (p *selectPlan) runAggregatePlan(src rowSrc, args []Value) ([]Value, error) {
	accs := make([]aggAcc, len(p.aggs))
	for i := range p.aggs {
		accs[i] = newAggAcc(&p.aggs[i])
	}
	e := &env{cols: p.cols, args: args}
	for {
		r, err := src.next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		e.row = r
		for i := range accs {
			accs[i].feed(e)
		}
	}
	out := make([]Value, len(p.st.Items))
	for i := range accs {
		v, err := accs[i].result()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	if len(accs) < len(out) {
		return nil, errMixedAggregates()
	}
	return out, nil
}

// distinctRowCost is the cost of one row visit on the probe path (read
// the row, project it, look its DISTINCT key up, keep it) in units of
// one integer step of the index path (a bitmap set or test). Measured
// in memory on a 2-vCPU x86-64 host over the 10^6-row scale star: a
// probe-path row costs about 150 ns (2x10^5 attrname-probe rows in 31
// ms), an index-path position 1-2.5 ns (16 metricid buckets over 10^6
// positions walked in 1.0 ms). The constant sits below that 60-150x
// ratio, so near the crossover the planner keeps the probe path.
const distinctRowCost = 64

// chooseIndexDistinct decides whether this execution answers the plan's
// distinctPush from the hash index on its column. Without WHERE it
// always does: one step per bucket beats a row visit per row. With
// WHERE d = v, the probe bucket P of d's index must be exact for v — not
// mixed and holding v itself — so P is precisely the qualifying rows;
// otherwise the probe path re-checks candidates and must be used. The
// index path then costs at most c's indexed positions plus |P| integer
// steps (P into a bitmap, each bucket walked to its first hit), the
// probe path |P| row visits, and the cheaper one is taken:
//
//	index-distinct iff indexed(c) + |P| <= distinctRowCost * |P|
func (p *selectPlan) chooseIndexDistinct(args []Value) (accessChoice, bool) {
	d := p.distinct
	ix := p.base.index(p.base.Columns[d.col].Name)
	if ix == nil {
		return accessChoice{}, false
	}
	acc := accessChoice{kind: accessIndexDistinct, column: ix.column, distinct: ix}
	if d.eq == nil {
		return acc, true
	}
	dx := p.base.index(p.base.Columns[d.eq.col].Name)
	if dx == nil {
		return acc, false
	}
	v, err := eval(d.eq.val, &env{args: args})
	if err != nil {
		return acc, false // the row path surfaces the error, if a row reaches it
	}
	probe := emptyIdx
	if b := dx.bucketOf(v); b != nil {
		if b.mixed || !Equal(b.rep(), v) {
			return acc, false
		}
		probe = b.pos
	}
	if ix.indexed+len(probe) > distinctRowCost*len(probe) {
		return acc, false
	}
	acc.idx = probe
	return acc, true
}

// distinctEntry is one distinct value the index path found, with its
// first qualifying position: the row the naive executor keeps for it.
type distinctEntry struct {
	v   Value
	pos int
}

// indexDistinct answers the plan's distinctPush from the buckets of
// acc.distinct, restricted to the positions in acc.idx when non-nil.
// A pure bucket contributes its representative at its first qualifying
// position without any row read; a mixed bucket's qualifying rows are
// read and split by DISTINCT identity. The result is what the naive
// executor returns: first-occurrence order, or (Compare, first position)
// order under ORDER BY with DESC flipping only the Compare term, then
// LIMIT; COUNT skips NULL and ignores LIMIT.
func (p *selectPlan) indexDistinct(acc accessChoice) ([][]Value, error) {
	ix, d := acc.distinct, p.distinct
	view := p.base.view()
	var bits []uint64 // qualifying positions; nil: every row qualifies
	if acc.idx != nil {
		bits = make([]uint64, (view.total()+63)/64)
		for _, q := range acc.idx {
			bits[q>>6] |= 1 << (q & 63)
		}
	}
	hit := func(q int) bool { return bits == nil || bits[q>>6]&(1<<(q&63)) != 0 }
	if d.count && bits == nil && ix.mixed == 0 {
		return [][]Value{{Int(int64(len(ix.buckets)))}}, nil // one value per bucket
	}

	// COUNT needs only the number of entries, so it collects none.
	var out []distinctEntry
	n := 0
	emit := func(v Value, q int) {
		n++
		if !d.count {
			out = append(out, distinctEntry{v, q})
		}
	}
	if bits == nil && !d.count {
		out = make([]distinctEntry, 0, len(ix.buckets)+1)
	}
	var split valueSet // identities never span buckets: one set serves all
	for i := range ix.buckets {
		b := &ix.buckets[i]
		if !b.mixed {
			if bits == nil {
				emit(b.rep(), b.pos[0])
				continue
			}
			for _, q := range b.pos {
				if hit(q) {
					emit(b.rep(), q)
					break
				}
			}
			continue
		}
		for _, q := range b.pos {
			if !hit(q) {
				continue
			}
			v := view.row(q)[ix.col]
			if view.err != nil {
				return nil, view.err
			}
			if split.add(v) {
				emit(v, q)
			}
		}
	}
	if d.count {
		return [][]Value{{Int(int64(n))}}, nil
	}
	for _, q := range ix.nulls {
		if hit(q) {
			emit(Null(), q)
			break
		}
	}

	slices.SortFunc(out, func(a, b distinctEntry) int {
		if d.order {
			if c := Compare(a.v, b.v); c != 0 {
				if d.desc {
					return -c
				}
				return c
			}
		}
		return cmp.Compare(a.pos, b.pos)
	})
	if lim := p.st.Limit; lim >= 0 && len(out) > lim {
		out = out[:lim]
	}
	vals := make([]Value, len(out))
	mat := make([][]Value, len(out))
	for i := range out {
		vals[i] = out[i].v
		mat[i] = vals[i : i+1 : i+1]
	}
	return mat, nil
}
