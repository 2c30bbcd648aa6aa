package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pperfgrid/internal/perfdata"
)

// outcome is what one measured window produced.
type outcome struct {
	begin, end int64 // the window on the stand's clock

	open      []*rec // open-loop getPRs
	late      []float64
	closed    []*rec // closed-loop getPRs or browse rounds
	closedDur time.Duration
	pubs      []*rec
	acks      []ack
	wal       walTally
	samples   []sample

	attempted, failed int64
	errs              []error

	before, after snapshot
	serviceMs     float64
	diskMB        float64
}

func (out *outcome) absorb(recs []*rec, samples []sample, failed int64, errs []error) []*rec {
	out.samples = append(out.samples, samples...)
	out.attempted += int64(len(recs))
	out.failed += failed
	out.errs = append(out.errs, errs...)
	return recs
}

func (out *outcome) fail(err error) {
	out.failed++
	if len(out.errs) < 5 {
		out.errs = append(out.errs, err)
	}
}

// measure runs the workload's measured window: the open-loop phase at
// the workload's fixed rate, with ingest's publisher on its own schedule
// inside it, then the closed-loop phase.
func (st *stand) measure(o options) (*outcome, error) {
	w := st.w
	total := time.Duration(o.seconds) * time.Second
	var openDur time.Duration
	var sched []query
	if w.rate > 0 {
		openDur = time.Duration(float64(total) * openShare)
		pick := st.tf.picker(w, streamRNG(o.seed, streamOpen))
		sched = make([]query, int(w.rate*openDur.Seconds()))
		for i := range sched {
			sched[i] = pick()
		}
	}
	var closedOp func(s *sender, wi, k int)
	if w.browse {
		n, attrs := browseExpect(st.cfg)
		closedOp = func(s *sender, _, _ int) { s.browse(n, attrs) }
	} else {
		picks := make([]func() query, len(st.workers))
		for i := range picks {
			picks[i] = st.tf.picker(w, streamRNG(o.seed, streamClosed+i))
		}
		closedOp = func(s *sender, wi, k int) {
			q := picks[wi]()
			s.getPR(&q, -1, k%sampleEvery == 0)
		}
	}

	// Start every window from a collected heap, so that how many GC
	// cycles fall into it does not depend on what set-up left behind.
	runtime.GC()
	out := &outcome{}
	out.before = st.snapshot()
	out.begin = st.clk.now()
	// The publisher shares the open-loop phase only: a publish stall in
	// the short closed-loop phase would set max_rps by where it fell.
	var wg sync.WaitGroup
	if st.pub != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.acks = publisher(st.pub, o.seed, out.begin, out.begin+int64(openDur), w.publishEvery, &out.wal)
		}()
	}
	if openDur > 0 {
		var err error
		if out.late, err = openLoop(st.senders, w.rate, sched); err != nil {
			return nil, err
		}
		out.open = out.absorb(drain(st.senders))
	}
	wg.Wait()
	if st.pub != nil {
		out.pubs = out.absorb(drain([]*sender{st.pub}))
	}
	out.closedDur = closedLoop(st.workers, total-openDur, closedOp)
	out.closed = out.absorb(drain(st.workers))
	out.end = st.clk.now()
	out.after = st.snapshot()
	out.serviceMs = st.site.Containers()[0].MeanServiceMs()
	if st.dir != "" {
		out.diskMB = float64(diskBytes(st.dir)) / (1 << 20)
	}
	return out, nil
}

// check is the correctness gate, run after the window: every sampled
// getPR reply must equal a direct wrapper call on the same store (no
// wire, no cache), and every acknowledged publish must read back over
// the wire. Browse rounds were checked as they ran.
func (st *stand) check(out *outcome) {
	direct := make(map[string][32]byte)
	for _, sm := range out.samples {
		k := strconv.Itoa(sm.q.exec) + "|" + sm.q.q.Key()
		d, ok := direct[k]
		if !ok {
			ew, err := st.star.ExecutionWrapper(st.cfg.ExecID(sm.q.exec))
			if err != nil {
				out.fail(err)
				continue
			}
			rs, err := ew.PerformanceResults(sm.q.q)
			if err != nil {
				out.fail(err)
				continue
			}
			d = digest(rs)
			direct[k] = d
		}
		if d != sm.digest {
			out.fail(fmt.Errorf("getPR %s on execution %d differs from a direct wrapper call", sm.q.q.Key(), sm.q.exec))
		}
	}
	for _, a := range out.acks {
		out.attempted++
		q := st.tf.readBack(a.exec, a.k)
		rs, err := st.pub.refs[a.exec].PerformanceResults(q.q)
		if err == nil && !sameResults(rs, a.rs) {
			err = fmt.Errorf("publish %d on execution %d not read back: got %d results, want %d", a.k, a.exec, len(rs), len(a.rs))
		}
		if err != nil {
			out.fail(err)
		}
	}
}

func sameResults(a, b []perfdata.Result) bool {
	ea, eb := perfdata.EncodeResults(a), perfdata.EncodeResults(b)
	sort.Strings(ea)
	sort.Strings(eb)
	return strings.Join(ea, "\n") == strings.Join(eb, "\n")
}

// primary returns the requests whose latency the end-to-end metrics
// report: the open-loop getPRs, or browse's discovery rounds.
func (out *outcome) primary(w *workload) []*rec {
	if w.browse {
		return out.closed
	}
	return out.open
}

func latencies(recs []*rec) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.ok {
			xs = append(xs, r.latencyMs())
		}
	}
	return xs
}

func okCount(recs []*rec) int {
	n := 0
	for _, r := range recs {
		if r.ok {
			n++
		}
	}
	return n
}

// cpuPerOp is the process CPU time per request over the window.
func (out *outcome) cpuPerOp() float64 {
	return ratio(float64(out.after.cpu-out.before.cpu)/1e6, float64(len(allRecs(out))))
}

func (out *outcome) maxRPS() float64 {
	return ratio(float64(okCount(out.closed)), out.closedDur.Seconds())
}

// describe prints the window's figures that are not result metrics.
func describe(w *workload, out *outcome) {
	lat := latencies(out.primary(w))
	fmt.Fprintf(os.Stderr, "  primary samples %d, tail = p%g; closed-loop ops %d in %.2fs; generator late p50 %.3f p99 %.3f ms\n",
		len(lat), w.tailQ*100, len(out.closed), out.closedDur.Seconds(), quantile(out.late, 0.5), quantile(out.late, 0.99))
	if len(out.pubs) > 0 {
		fmt.Fprintf(os.Stderr, "  publishes %d (acknowledged %d), publish p50 %.2f ms, disk %.1f MB\n",
			len(out.pubs), len(out.acks), quantile(latencies(out.pubs), 0.5), out.diskMB)
	}
	fmt.Fprintf(os.Stderr, "  latency ms: p50 %.3f p90 %.3f p99 %.3f max %.3f; GC cycles %d\n",
		quantile(lat, .5), quantile(lat, .9), quantile(lat, .99), quantile(lat, 1), out.after.gcCycles-out.before.gcCycles)
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d\n", out.attempted, out.failed)
	for _, err := range out.errs {
		fmt.Fprintln(os.Stderr, "  failure:", err)
	}
}

// runPlain is the untraced run: setupReps set-ups (setup_s is their
// median), one measured window on the last, the correctness gate, and the
// end-to-end metrics.
func runPlain(o options, w *workload) (*result, error) {
	var st *stand
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = setUp(o, w, false, rep); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
	}
	defer st.close()
	printEnv(environment(o, w, st))
	out, err := st.measure(o)
	if err != nil {
		return nil, err
	}
	st.check(out)
	heap := liveHeapMB()
	describe(w, out)
	lat := latencies(out.primary(w))
	ms := map[string]metric{
		"setup_s": {quantile(setups, 0.5), "s"},
		"p50_ms":  {quantile(lat, 0.5), "ms"},
		"heap_mb": {heap, "MB"},
	}
	fmt.Fprintf(os.Stderr, "  unbounded: tail_ms (p%g) %.4f, max_rps %.1f, cpu_ms_per_op %.4f\n",
		w.tailQ*100, quantile(lat, w.tailQ), out.maxRPS(), out.cpuPerOp())
	report(w.name+" (untraced)", ms)
	return &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}, nil
}

// runTraced measures the workload twice on fresh set-ups — untraced, then
// traced — and reports the per-layer metrics of the traced window, the
// tracing overhead, and the parity of the per-op counters between the
// two.
func runTraced(o options, w *workload) (*result, error) {
	plain, err := setUp(o, w, false, 0)
	if err != nil {
		return nil, err
	}
	printEnv(environment(o, w, plain))
	pout, err := plain.measure(o)
	if err != nil {
		plain.close()
		return nil, err
	}
	plain.check(pout)
	describe(w, pout)
	plain.close()

	st, err := setUp(o, w, true, 1)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out, err := st.measure(o)
	if err != nil {
		return nil, err
	}
	st.check(out)
	heap := liveHeapMB()
	cached := st.cacheBytes()
	describe(w, out)

	recs := allRecs(out)
	calls := windowCalls(st.tr, out)
	att, lost, spans := attribute(recs, calls)
	ms, problems := layerMetrics(w, out, pout, calls, att, lost)
	ms["runtime.heap_live_mb"] = metric{heap, "MB"}
	ms["core.cache_bytes"] = metric{float64(cached), "bytes"}
	ms["disk_mb"] = metric{pout.diskMB, "MB"}
	ms["publish_p50_ms"] = metric{quantile(latencies(pout.pubs), 0.5), "ms"}
	plat := latencies(pout.primary(w))
	ms["tail_ms"] = metric{quantile(plat, w.tailQ), "ms"}
	ms["p99_ms"] = metric{quantile(plat, 0.99), "ms"}
	ms["max_rps"] = metric{pout.maxRPS(), "1/s"}
	ms["cpu_ms_per_op"] = metric{pout.cpuPerOp(), "ms"}
	attempted := pout.attempted + out.attempted
	failed := pout.failed + out.failed + int64(len(problems))
	ms["fail_ratio"] = metric{ratio(float64(failed), float64(attempted)), "ratio"}
	report(w.name+" (traced)", ms)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "  trace check failed:", p)
	}

	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
	if err := writeSpans(path, recs, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "  spans written to", path)
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   ms,
	}, nil
}

func allRecs(out *outcome) []*rec {
	var rs []*rec
	rs = append(rs, out.open...)
	rs = append(rs, out.closed...)
	return append(rs, out.pubs...)
}

// windowCalls returns the traced mapping calls that began inside the
// measured window, with each request's server arrival stamps filled in.
func windowCalls(tr *tracer, out *outcome) []mappingCall {
	for _, r := range allRecs(out) {
		for i := range r.calls[:r.n] {
			c := &r.calls[i]
			if s, ok := tr.stamp(r.id, c.op); ok {
				c.stamp = s
			}
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var cs []mappingCall
	for _, c := range tr.calls {
		if c.start >= out.begin && c.start < out.end {
			cs = append(cs, c)
		}
	}
	return cs
}

// cacheBytes sums the results-cache footprint of every Execution
// instance, from their service data.
func (st *stand) cacheBytes() int64 {
	var n int64
	for i := range st.handles {
		for _, svc := range st.site.ExecutionServices(st.cfg.ExecID(i)) {
			if v := svc.ServiceData()["cacheBytes"]; len(v) == 1 {
				b, _ := strconv.ParseInt(v[0], 10, 64)
				n += b
			}
		}
	}
	return n
}

// reconcileTolerance bounds the share of the traced wall time that the
// per-layer self times may leave unexplained.
const reconcileTolerance = 0.05

// parityTolerance bounds how far a per-op counter ratio may differ
// between the untraced and the traced window.
const parityTolerance = 0.05

// layerMetrics derives the per-layer metrics of a traced window, and
// lists any trace self-check that failed.
func layerMetrics(w *workload, out, plain *outcome, calls []mappingCall, att map[*wireCall]int64, lost []mappingCall) (map[string]metric, []string) {
	var problems []string
	if len(lost) > 0 {
		problems = append(problems, fmt.Sprintf("%d mapping calls ran outside every traced request", len(lost)))
	}

	// Self times per primary request.
	var clientSelf, arrive, rest, mapMs, wait, lat []float64
	missing := 0
	for _, r := range out.primary(w) {
		if !r.ok {
			continue
		}
		var cs, ar, rs, mp float64
		for i := range r.calls[:r.n] {
			c := &r.calls[i]
			if c.stamp < 0 {
				missing++
				continue
			}
			m := float64(att[c]) / 1e6
			server := float64(c.reply-c.stamp) / 1e6
			ar += float64(c.stamp-c.start) / 1e6
			cs += float64(c.end-c.start)/1e6 - server
			rs += server - m
			mp += m
		}
		clientSelf = append(clientSelf, cs)
		arrive = append(arrive, ar)
		rest = append(rest, rs)
		mapMs = append(mapMs, mp)
		wait = append(wait, float64(r.calls[0].start-r.due)/1e6)
		lat = append(lat, r.latencyMs())
	}
	if missing > 0 {
		problems = append(problems, fmt.Sprintf("%d wire calls have no arrival stamp", missing))
	}
	covered := mean(wait) + mean(clientSelf) + mean(rest) + mean(mapMs)
	reconcile := math.Abs(covered-mean(lat)) / mean(lat)
	if !(reconcile <= reconcileTolerance) {
		problems = append(problems, fmt.Sprintf("self times explain %.3f ms of %.3f ms mean wall time", covered, mean(lat)))
	}

	// Mapping-Layer call durations by operation.
	byOp := map[string][]float64{}
	for _, c := range calls {
		byOp[c.op] = append(byOp[c.op], float64(c.end-c.start)/1e6)
	}
	var firstRead []float64
	for _, p := range calls {
		if p.op != opPublishPR {
			continue
		}
		next := int64(math.MaxInt64)
		var d float64
		for _, c := range calls {
			if c.op == opGetPR && c.start >= p.end && c.start < next {
				next, d = c.start, float64(c.end-c.start)/1e6
			}
		}
		if next != math.MaxInt64 {
			firstRead = append(firstRead, d)
		}
	}

	getPRs := func(o *outcome) float64 {
		n := 0
		for _, r := range allRecs(o) {
			if r.calls[0].op == opGetPR {
				n++
			}
		}
		return float64(n)
	}
	ops := float64(len(allRecs(out)))
	b, a := out.before, out.after
	hitRatio := func(o *outcome) float64 {
		h := float64(o.after.hits - o.before.hits)
		return ratio(h, h+float64(o.after.misses-o.before.misses))
	}
	encodes := func(o *outcome) float64 {
		return ratio(float64(o.after.encodes-o.before.encodes), getPRs(o))
	}
	mapCalls := func(o *outcome) float64 {
		return ratio(float64(o.after.mapGetPR-o.before.mapGetPR), getPRs(o))
	}
	for _, p := range []struct {
		name string
		f    func(*outcome) float64
	}{
		{name: "core.wire_encodes_per_op", f: encodes},
		{name: "core.cache_hit_ratio", f: hitRatio},
		{name: "mapping.calls_per_op", f: mapCalls},
	} {
		u, t := p.f(plain), p.f(out)
		if math.Abs(u-t) > parityTolerance {
			problems = append(problems, fmt.Sprintf("%s: untraced %.4f, traced %.4f", p.name, u, t))
		}
	}

	pcHits := float64(a.eng.PageCacheHits - b.eng.PageCacheHits)
	pcMisses := float64(a.eng.PageCacheMisses - b.eng.PageCacheMisses)
	untracedP50 := quantile(latencies(plain.primary(w)), 0.5)
	ms := map[string]metric{
		"client.self_ms":                      {quantile(clientSelf, 0.5), "ms"},
		"container.arrive_ms":                 {quantile(arrive, 0.5), "ms"},
		"container.requests":                  {float64(a.requests - b.requests), "count"},
		"container.faults":                    {float64(a.faults - b.faults), "count"},
		"container.sheds":                     {float64(a.sheds - b.sheds), "count"},
		"container.service_ms":                {out.serviceMs, "ms"},
		"core.cache_hit_ratio":                {hitRatio(out), "ratio"},
		"core.wire_encodes_per_op":            {encodes(out), "count"},
		"core.cache_evictions":                {float64(a.evictions - b.evictions), "count"},
		"core.coalesced":                      {float64(a.coalesced - b.coalesced), "count"},
		"core.invalidations":                  {float64(a.invalidated - b.invalidated), "count"},
		"server.rest_ms":                      {quantile(rest, 0.5), "ms"},
		"mapping.getpr_p50_ms":                {quantile(byOp[opGetPR], 0.5), "ms"},
		"mapping.getpr_p99_ms":                {quantile(byOp[opGetPR], 0.99), "ms"},
		"mapping.calls_per_op":                {mapCalls(out), "count"},
		"mapping.publish_ms":                  {quantile(byOp[opPublishPR], 0.5), "ms"},
		"mapping.first_read_after_publish_ms": {quantile(firstRead, 0.5), "ms"},
		"mapping.numexecs_ms":                 {quantile(byOp[opNumExecs], 0.5), "ms"},
		"mapping.execqueryparams_ms":          {quantile(byOp[opExecQueryParams], 0.5), "ms"},
		"minidb.page_cache_hit_ratio":         {ratio(pcHits, pcHits+pcMisses), "ratio"},
		"minidb.page_cache_evictions":         {float64(a.eng.PageCacheEvictions - b.eng.PageCacheEvictions), "count"},
		"minidb.blocks_scanned":               {float64(a.eng.BlocksScanned - b.eng.BlocksScanned), "count"},
		"minidb.blocks_skipped":               {float64(a.eng.BlocksSkipped - b.eng.BlocksSkipped), "count"},
		"minidb.wal_bytes_per_publish":        {ratio(float64(out.wal.bytes), float64(out.wal.byteSamples)), "bytes"},
		"minidb.wal_fsyncs_per_publish":       {ratio(float64(out.wal.fsyncs), float64(out.wal.publishes)), "count"},
		"minidb.seals":                        {float64(a.eng.Seals - b.eng.Seals), "count"},
		"minidb.merges":                       {float64(a.eng.Merges - b.eng.Merges), "count"},
		"minidb.checkpoints":                  {float64(a.eng.Checkpoints - b.eng.Checkpoints), "count"},
		"runtime.gc_cycles":                   {float64(a.gcCycles - b.gcCycles), "count"},
		"runtime.gc_pause_ms":                 {(a.gcPauseSec - b.gcPauseSec) * 1e3, "ms"},
		"runtime.allocs_per_op":               {ratio(float64(a.allocObjects-b.allocObjects), ops), "count"},
		"runtime.alloc_kb_per_op":             {ratio(float64(a.allocBytes-b.allocBytes)/1024, ops), "KiB"},
		"loadgen.late_ms":                     {quantile(out.late, 0.99), "ms"},
		"trace.overhead_ms":                   {quantile(lat, 0.5) - untracedP50, "ms"},
		"trace.reconcile_err":                 {reconcile, "ratio"},
	}
	return ms, problems
}
