package minidb

import (
	"fmt"
	"strings"
)

// PlanInfo describes how one SELECT executes: the chosen access path,
// order/limit pushdown, join strategy, and compiled kernel count. It is
// computed per execution — the access choice depends on the bound
// parameters, current index sizes, and which indexes exist — so tests
// can assert "this query used the ordered index" instead of inferring it
// from timing.
type PlanInfo struct {
	Table string
	Naive bool // routed to the naive executor (unsafe predicates)

	// Access is one of seq-scan, index-eq, index-in, index-range,
	// index-null, ordered-walk, or index-distinct (DISTINCT or
	// COUNT(DISTINCT) answered from hash-index buckets, no row scan);
	// AccessColumn names the probed index column for the index kinds and
	// the walk, and the DISTINCT column for index-distinct, whose
	// Candidates is the WHERE equality's probe bucket size, if any.
	Access       string
	AccessColumn string
	Candidates   int // narrowed candidate row count; -1 when not narrowed

	OrderedDesc bool // ordered-walk direction
	TopK        bool // ORDER BY+LIMIT retained through a bounded heap
	StreamLimit bool // LIMIT stops a streaming source early

	Join string // "", "hash", "nested-loop"

	Kernels  int // base-scan conjuncts compiled to vectorized kernels
	Residual int // total base-scan conjuncts (re-checked on candidates)

	// Disk-engine full scans: how many sealed blocks the scan would visit
	// and how many the zone maps prove skippable for these bindings.
	Blocks        int
	BlocksSkipped int
}

// String renders a compact one-line EXPLAIN.
func (pi *PlanInfo) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table=%s access=%s", pi.Table, pi.Access)
	if pi.Naive {
		b.WriteString(" naive")
	}
	if pi.AccessColumn != "" {
		fmt.Fprintf(&b, " column=%s", pi.AccessColumn)
	}
	if pi.Candidates >= 0 {
		fmt.Fprintf(&b, " candidates=%d", pi.Candidates)
	}
	if pi.Access == accessOrderedWalk {
		if pi.OrderedDesc {
			b.WriteString(" desc")
		} else {
			b.WriteString(" asc")
		}
	}
	if pi.TopK {
		b.WriteString(" top-k")
	}
	if pi.StreamLimit {
		b.WriteString(" stream-limit")
	}
	if pi.Join != "" {
		fmt.Fprintf(&b, " join=%s", pi.Join)
	}
	if pi.Residual > 0 {
		fmt.Fprintf(&b, " kernels=%d/%d", pi.Kernels, pi.Residual)
	}
	if pi.Blocks > 0 {
		fmt.Fprintf(&b, " blocks=%d skipped=%d", pi.Blocks, pi.BlocksSkipped)
	}
	return b.String()
}

// Explain reports how the prepared SELECT would execute with the given
// parameter bindings, without running it. (Like execution, it may lazily
// build or extend the ordered indexes it probes.)
func (s *Stmt) Explain(args ...Value) (*PlanInfo, error) {
	sel, ok := s.st.(*SelectStmt)
	if !ok {
		return nil, errf("exec", "use Exec for non-SELECT statements")
	}
	if err := s.bindCheck(args); err != nil {
		return nil, err
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	p, err := s.cachedPlan(sel)
	if err != nil {
		return nil, err
	}
	return p.explain(args)
}

// Explain reports how a parameter-free SELECT would execute.
func (db *Database) Explain(sql string) (*PlanInfo, error) {
	sel, err := parseSelect(sql)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, err := db.planSelect(sel)
	if err != nil {
		return nil, err
	}
	return p.explain(nil)
}

func (p *selectPlan) explain(args []Value) (*PlanInfo, error) {
	info := &PlanInfo{Table: p.base.Name, Candidates: -1}
	if p.unsafe {
		info.Naive = true
		info.Access = accessSeqScan
		return info, nil
	}
	acc, err := p.chooseAccess(args)
	if err != nil {
		return nil, err
	}
	info.Access = acc.kind
	info.AccessColumn = acc.column
	if acc.idx != nil {
		info.Candidates = len(acc.idx)
	}
	if acc.walk != nil {
		info.OrderedDesc = acc.walkDesc
	}

	st := p.st
	switch {
	case acc.kind == accessIndexDistinct: // answered whole from the index
	case p.hasAgg: // aggregates consume everything; LIMIT is ignored
	case len(st.OrderBy) > 0:
		if acc.walk != nil {
			info.StreamLimit = st.Limit >= 0
		} else if st.Limit >= 0 && !st.Distinct {
			info.TopK = true
		}
	default:
		info.StreamLimit = st.Limit >= 0
	}

	if p.join != nil {
		if p.join.leftKey >= 0 && p.join.rightKey >= 0 {
			info.Join = "hash"
		} else {
			info.Join = "nested-loop"
		}
	}
	for i := range p.vecPreds {
		if p.vecPreds[i].kind != vpFallback {
			info.Kernels++
		}
	}
	info.Residual = len(p.leftPred)

	// Report zone-map skipping for full scans over sealed blocks: bind the
	// kernels to these parameters and probe each block's zone map exactly
	// as the scan would.
	if acc.kind == accessSeqScan && len(p.base.blocks) > 0 {
		info.Blocks = len(p.base.blocks)
		if p.db.eng != nil && p.db.eng.pruneOn.Load() {
			var vf vecFilter
			v := p.base.view()
			vf.bind(p.vecPreds, args, nil, &v)
			for i := range p.base.blocks {
				if pruneBlock(p.base.blocks[i].zm, vf.kernels) {
					info.BlocksSkipped++
				}
			}
		}
	}
	return info, nil
}
