package minidb

// This file is the vectorized half of the base scan. At plan time each
// pushed-down base-scan conjunct is compiled to a vecPred kernel; at
// execution time the kernels are bound to concrete constant operands and
// applied predicate-at-a-time over selection-vector blocks of row
// positions (vecBlockSize at a time), compacting the selection in place.
// That replaces the per-row eval tree walk with tight loops over one
// column each — the residual-predicate cost at million-row scale.
//
// Every kernel replicates eval's semantics exactly (the differential
// tests pin this): comparisons are false when either side is NULL,
// BETWEEN is pure Compare with no NULL short-circuit, IN uses Equal
// (where Equal(NULL, NULL) is true), and anything the compiler does not
// recognize falls back to row-at-a-time eval of the original expression.

// vpKind discriminates compiled kernel shapes.
type vpKind uint8

const (
	vpFallback vpKind = iota // row-at-a-time eval of expr
	vpConst                  // no column references: one eval per execution
	vpTruthy                 // bare base-column reference
	vpCmp                    // col <op> const (=, !=, <, <=, >, >=, LIKE)
	vpBetween                // col [NOT] BETWEEN const AND const
	vpIn                     // col [NOT] IN (consts)
	vpIsNull                 // col IS [NOT] NULL
)

// vecPred is the plan-time compiled form of one base-scan conjunct. Like
// the rest of a selectPlan it is immutable after planning; per-execution
// operand values live in boundVec.
type vecPred struct {
	kind vpKind
	col  int    // base column position (vpTruthy..vpIsNull)
	op   string // vpCmp
	neg  bool   // vpBetween / vpIn / vpIsNull
	args []Expr // constant operands (vpCmp: 1, vpBetween: 2, vpIn: n)
	expr Expr   // original conjunct (vpFallback / vpConst)
}

// compileVec compiles one pushed-down conjunct to a kernel, falling back
// to row-at-a-time eval for shapes it does not recognize.
func (p *selectPlan) compileVec(c Expr, baseQual, rightQual string) vecPred {
	if isConst(c) {
		return vecPred{kind: vpConst, expr: c}
	}
	switch x := c.(type) {
	case *ColumnRef:
		if col := p.baseCol(x, baseQual, rightQual); col >= 0 {
			return vecPred{kind: vpTruthy, col: col}
		}
	case *Binary:
		switch x.Op {
		case "=", "!=", "<", "<=", ">", ">=", "LIKE":
		default:
			return vecPred{kind: vpFallback, expr: c}
		}
		op := x.Op
		ref, val := x.L, x.R
		flipped := false
		if _, ok := ref.(*ColumnRef); !ok {
			ref, val = x.R, x.L
			op = flipCmp(op)
			flipped = true
		}
		cr, ok := ref.(*ColumnRef)
		if !ok || !isConst(val) {
			break
		}
		if op == "LIKE" && flipped {
			break // LIKE is direction-sensitive: 'pat' LIKE col stays on eval
		}
		if col := p.baseCol(cr, baseQual, rightQual); col >= 0 {
			return vecPred{kind: vpCmp, col: col, op: op, args: []Expr{val}}
		}
	case *Between:
		cr, ok := x.X.(*ColumnRef)
		if !ok || !isConst(x.Lo) || !isConst(x.Hi) {
			break
		}
		if col := p.baseCol(cr, baseQual, rightQual); col >= 0 {
			return vecPred{kind: vpBetween, col: col, neg: x.Negate, args: []Expr{x.Lo, x.Hi}}
		}
	case *InList:
		cr, ok := x.X.(*ColumnRef)
		if !ok {
			break
		}
		allConst := true
		for _, it := range x.List {
			if !isConst(it) {
				allConst = false
				break
			}
		}
		if !allConst {
			break
		}
		if col := p.baseCol(cr, baseQual, rightQual); col >= 0 {
			return vecPred{kind: vpIn, col: col, neg: x.Negate, args: x.List}
		}
	case *IsNull:
		cr, ok := x.X.(*ColumnRef)
		if !ok {
			break
		}
		if col := p.baseCol(cr, baseQual, rightQual); col >= 0 {
			return vecPred{kind: vpIsNull, col: col, neg: x.Negate}
		}
	}
	return vecPred{kind: vpFallback, expr: c}
}

// boundVec is one kernel bound to its per-execution operand values.
type boundVec struct {
	pred     *vecPred
	a, b     Value   // vpCmp (a) / vpBetween (a=lo, b=hi)
	list     []Value // vpIn
	drop     bool    // vpConst that evaluated truthy: no-op
	none     bool    // vpConst that evaluated falsy: rejects every row
	fallback bool    // operand binding failed: degrade to row-at-a-time eval
}

// vecFilter applies a plan's kernels to selection-vector blocks. It is
// per-execution state, embedded by value in the scan iterators; view
// points at the owning iterator's rowsView so kernels read sealed blocks
// and the in-memory tail through one position-addressed interface.
type vecFilter struct {
	kernels []boundVec
	env     *env // fallback-eval environment (base columns)
	view    *rowsView
}

// bind evaluates each kernel's constant operands for this execution. A
// binding error degrades that kernel to fallback so the error surfaces
// per row exactly where the row-at-a-time path would raise it.
func (vf *vecFilter) bind(preds []vecPred, args []Value, e *env, view *rowsView) {
	vf.env = e
	vf.view = view
	if len(preds) == 0 {
		return
	}
	vf.kernels = make([]boundVec, len(preds))
	constEnv := &env{args: args}
	for i := range preds {
		vp := &preds[i]
		bv := &vf.kernels[i]
		bv.pred = vp
		switch vp.kind {
		case vpConst:
			v, err := eval(vp.expr, constEnv)
			if err != nil {
				bv.fallback = true
				break
			}
			if v.Truthy() {
				bv.drop = true
			} else {
				bv.none = true
			}
		case vpCmp:
			v, err := eval(vp.args[0], constEnv)
			if err != nil {
				bv.fallback = true
				break
			}
			bv.a = v
		case vpBetween:
			lo, err1 := eval(vp.args[0], constEnv)
			hi, err2 := eval(vp.args[1], constEnv)
			if err1 != nil || err2 != nil {
				bv.fallback = true
				break
			}
			bv.a, bv.b = lo, hi
		case vpIn:
			list := make([]Value, len(vp.args))
			for j, it := range vp.args {
				v, err := eval(it, constEnv)
				if err != nil {
					bv.fallback = true
					break
				}
				list[j] = v
			}
			if !bv.fallback {
				bv.list = list
			}
		}
	}
}

// filter runs every kernel over sel, compacting it in place, and returns
// the surviving positions (a prefix of sel's backing array).
func (vf *vecFilter) filter(sel []int) ([]int, error) {
	for k := range vf.kernels {
		if len(sel) == 0 {
			return sel, nil
		}
		bv := &vf.kernels[k]
		if bv.drop {
			continue
		}
		if bv.none {
			return sel[:0], nil
		}
		kind := bv.pred.kind
		if bv.fallback {
			kind = vpFallback
		}
		var err error
		sel, err = vf.apply(bv, kind, sel)
		if err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (vf *vecFilter) apply(bv *boundVec, kind vpKind, sel []int) ([]int, error) {
	v := vf.view
	col := bv.pred.col
	w := 0
	switch kind {
	case vpTruthy:
		for _, pos := range sel {
			if v.row(pos)[col].Truthy() {
				sel[w] = pos
				w++
			}
		}
	case vpIsNull:
		neg := bv.pred.neg
		for _, pos := range sel {
			if v.row(pos)[col].IsNull() != neg {
				sel[w] = pos
				w++
			}
		}
	case vpCmp:
		a := bv.a
		if a.IsNull() {
			return sel[:0], nil // comparisons with NULL are false for every row
		}
		switch bv.pred.op {
		case "=":
			for _, pos := range sel {
				if r := v.row(pos)[col]; !r.IsNull() && Equal(r, a) {
					sel[w] = pos
					w++
				}
			}
		case "!=":
			for _, pos := range sel {
				if r := v.row(pos)[col]; !r.IsNull() && !Equal(r, a) {
					sel[w] = pos
					w++
				}
			}
		case "<":
			for _, pos := range sel {
				if r := v.row(pos)[col]; !r.IsNull() && Compare(r, a) < 0 {
					sel[w] = pos
					w++
				}
			}
		case "<=":
			for _, pos := range sel {
				if r := v.row(pos)[col]; !r.IsNull() && Compare(r, a) <= 0 {
					sel[w] = pos
					w++
				}
			}
		case ">":
			for _, pos := range sel {
				if r := v.row(pos)[col]; !r.IsNull() && Compare(r, a) > 0 {
					sel[w] = pos
					w++
				}
			}
		case ">=":
			for _, pos := range sel {
				if r := v.row(pos)[col]; !r.IsNull() && Compare(r, a) >= 0 {
					sel[w] = pos
					w++
				}
			}
		case "LIKE":
			pat := a.String()
			for _, pos := range sel {
				if r := v.row(pos)[col]; !r.IsNull() && likeMatch(pat, r.String()) {
					sel[w] = pos
					w++
				}
			}
		}
	case vpBetween:
		lo, hi, neg := bv.a, bv.b, bv.pred.neg
		for _, pos := range sel {
			r := v.row(pos)[col]
			in := Compare(r, lo) >= 0 && Compare(r, hi) <= 0
			if in != neg {
				sel[w] = pos
				w++
			}
		}
	case vpIn:
		neg := bv.pred.neg
		for _, pos := range sel {
			r := v.row(pos)[col]
			match := false
			for _, iv := range bv.list {
				if Equal(r, iv) {
					match = true
					break
				}
			}
			if match != neg {
				sel[w] = pos
				w++
			}
		}
	default: // vpFallback
		e := vf.env
		for _, pos := range sel {
			e.row = v.row(pos)
			val, err := eval(bv.pred.expr, e)
			if err != nil {
				return nil, err
			}
			if val.Truthy() {
				sel[w] = pos
				w++
			}
		}
	}
	return sel[:w], nil
}

// vecBlockSize is the selection-vector block width: big enough to
// amortize per-block overhead, small enough to stay cache-resident.
const vecBlockSize = 256

// pruneBlock reports whether a block's zone map proves no row in it can
// satisfy every bound kernel, so the scan may skip the block without
// decoding it. Only Compare-based kernel shapes prune (the zone map
// stores Compare-order extremes; Equal folds numeric text across kinds,
// so =, !=, LIKE, and IN are never zone-bounded) — with one exception:
// an all-NULL column prunes any vpCmp op, since every comparison kernel
// rejects NULL rows outright. The rules mirror apply() exactly; the
// differential tests pin pruned scans against the naive executor.
func pruneBlock(zm []zoneEntry, kernels []boundVec) bool {
	for k := range kernels {
		bv := &kernels[k]
		if bv.drop || bv.fallback {
			continue
		}
		if bv.none {
			return true // a falsy const conjunct rejects every row
		}
		pred := bv.pred
		if pred.col >= len(zm) {
			continue
		}
		z := &zm[pred.col]
		allNull := z.nulls >= vecBlockSize
		switch pred.kind {
		case vpTruthy:
			if allNull {
				return true // NULL is never truthy
			}
		case vpIsNull:
			if !pred.neg && z.nulls == 0 {
				return true
			}
			if pred.neg && allNull {
				return true
			}
		case vpCmp:
			if bv.a.IsNull() || allNull {
				// apply() rejects every row when the operand is NULL, and
				// every comparison rejects NULL rows.
				return true
			}
			switch pred.op {
			case "<":
				if Compare(z.min, bv.a) >= 0 {
					return true
				}
			case "<=":
				if Compare(z.min, bv.a) > 0 {
					return true
				}
			case ">":
				if Compare(z.max, bv.a) <= 0 {
					return true
				}
			case ">=":
				if Compare(z.max, bv.a) < 0 {
					return true
				}
			}
		case vpBetween:
			lo, hi := bv.a, bv.b
			// in(NULL) = Compare(NULL,lo)>=0 && Compare(NULL,hi)<=0; NULL is
			// the global minimum under Compare, so the second clause always
			// holds and the first holds exactly when lo is NULL.
			nullIn := lo.IsNull()
			if !pred.neg {
				overlap := !allNull && Compare(z.max, lo) >= 0 && Compare(z.min, hi) <= 0
				if !overlap && !(z.nulls > 0 && nullIn) {
					return true
				}
			} else {
				// NOT BETWEEN keeps rows outside [lo, hi]; prune only if every
				// row — non-NULL extremes and any NULLs — is inside.
				nonNullAllIn := allNull ||
					(Compare(z.min, lo) >= 0 && Compare(z.max, hi) <= 0)
				if nonNullAllIn && (z.nulls == 0 || nullIn) {
					return true
				}
			}
		}
	}
	return false
}

// vecScanIter scans the table (optionally narrowed to index candidate
// positions, ascending) in blocks, filtering each block through the
// compiled kernels. Full scans over a disk table walk the sealed prefix
// block-aligned (the sealed row count is always a multiple of
// vecBlockSize), consulting each block's zone map before decode when
// pruning is enabled.
type vecScanIter struct {
	view    rowsView
	idx     []int // nil: scan every row
	vf      vecFilter
	pruneOn bool // zone-map skipping (full scans over sealed blocks only)

	cursor int
	sel    []int
	selPos int
	buf    [vecBlockSize]int
}

func (s *vecScanIter) next() (Row, error) {
	for {
		if s.selPos < len(s.sel) {
			r := s.view.row(s.sel[s.selPos])
			if s.view.err != nil {
				return nil, s.view.err
			}
			s.selPos++
			return r, nil
		}
		var n int
		if s.idx != nil {
			n = len(s.idx) - s.cursor
			if n == 0 {
				return nil, nil
			}
			if n > vecBlockSize {
				n = vecBlockSize
			}
			copy(s.buf[:n], s.idx[s.cursor:s.cursor+n])
		} else {
			total := s.view.total()
			for {
				if s.cursor < s.view.sealed {
					// Sealed prefix: the cursor is block-aligned here, so one
					// refill is exactly one block — skippable via its zone map.
					if s.pruneOn && pruneBlock(s.view.blocks[s.cursor>>vecBlockShift].zm, s.vf.kernels) {
						s.view.eng.blocksSkipped.Add(1)
						s.cursor += vecBlockSize
						continue
					}
					if s.view.eng != nil {
						s.view.eng.blocksScanned.Add(1)
					}
					n = vecBlockSize
				} else {
					n = total - s.cursor
					if n > vecBlockSize {
						n = vecBlockSize
					}
				}
				break
			}
			if n == 0 {
				return nil, nil
			}
			for i := 0; i < n; i++ {
				s.buf[i] = s.cursor + i
			}
		}
		s.cursor += n
		sel, err := s.vf.filter(s.buf[:n])
		if err != nil {
			return nil, err
		}
		if s.view.err != nil {
			return nil, s.view.err
		}
		s.sel, s.selPos = sel, 0
	}
}

// orderedWalkIter emits base rows in ordered-index key order — the ORDER
// BY pushdown path — applying the compiled filters blockwise. Ascending
// order is NULL rows first (NULL sorts lowest under Compare) then keys;
// descending walks runs of Compare-equal keys from the top, ascending row
// position within each run — exactly the order the naive executor's
// stable descending sort produces — then NULL rows last.
type orderedWalkIter struct {
	view rowsView
	ix   *orderedIndex
	desc bool
	vf   vecFilter

	nullCur        int // cursor into ix.nulls
	keyCur         int // asc: cursor into ix.ents
	hi             int // desc: top boundary of unconsumed keys
	runCur, runEnd int // desc: current equal-key run [runCur, runEnd)
	sel            []int
	selPos         int
	buf            [vecBlockSize]int
}

func (s *orderedWalkIter) next() (Row, error) {
	for {
		if s.selPos < len(s.sel) {
			r := s.view.row(s.sel[s.selPos])
			if s.view.err != nil {
				return nil, s.view.err
			}
			s.selPos++
			return r, nil
		}
		var n int
		if s.desc {
			n = s.fillDesc()
		} else {
			n = s.fillAsc()
		}
		if n == 0 {
			return nil, nil
		}
		sel, err := s.vf.filter(s.buf[:n])
		if err != nil {
			return nil, err
		}
		if s.view.err != nil {
			return nil, s.view.err
		}
		s.sel, s.selPos = sel, 0
	}
}

func (s *orderedWalkIter) fillAsc() int {
	n := 0
	for n < vecBlockSize && s.nullCur < len(s.ix.nulls) {
		s.buf[n] = s.ix.nulls[s.nullCur]
		s.nullCur++
		n++
	}
	for n < vecBlockSize && s.keyCur < len(s.ix.ents) {
		s.buf[n] = s.ix.posAt(s.keyCur)
		s.keyCur++
		n++
	}
	return n
}

func (s *orderedWalkIter) fillDesc() int {
	n := 0
	for n < vecBlockSize {
		if s.runCur < s.runEnd {
			s.buf[n] = s.ix.posAt(s.runCur)
			s.runCur++
			n++
			continue
		}
		if s.hi > 0 {
			j := s.hi
			i := j - 1
			for i > 0 && s.ix.sameKey(i-1, j-1) {
				i--
			}
			s.runCur, s.runEnd = i, j
			s.hi = i
			continue
		}
		if s.nullCur < len(s.ix.nulls) {
			s.buf[n] = s.ix.nulls[s.nullCur]
			s.nullCur++
			n++
			continue
		}
		break
	}
	return n
}
