package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
)

// requestIDHeader carries the benchmark's request ID from the client's
// header provider to the benchmark's container interceptor.
const requestIDHeader = "perfbench-request-id"

// clock is the run's monotonic time base, in nanoseconds.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// tracer keeps the traced run's boundary observations in memory: the
// interceptor's arrival stamps and the mapping decorator's call spans.
// Spans are assembled and written out when the run ends.
type tracer struct {
	clk clock

	mu     sync.Mutex
	stamps map[stampKey]int64
	calls  []mappingCall
}

type stampKey struct {
	id uint64
	op string
}

// mappingCall is one timed call into the Mapping Layer. exec is -1 for
// Application-level calls; key is the getPR query key.
type mappingCall struct {
	op         string
	exec       int32
	key        string
	start, end int64
}

func newTracer(clk clock) *tracer {
	return &tracer{clk: clk, stamps: make(map[stampKey]int64)}
}

// interceptor stamps each request's arrival: the container calls it after
// reading and SOAP-decoding the request, before dispatch.
func (t *tracer) interceptor() container.Interceptor {
	return func(req *soap.Request, _ gsh.Handle) error {
		now := t.clk.now()
		v, ok := req.Header(requestIDHeader)
		if !ok {
			return nil
		}
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("perfbench: bad %s header %q", requestIDHeader, v)
		}
		t.mu.Lock()
		t.stamps[stampKey{id, req.Operation}] = now
		t.mu.Unlock()
		return nil
	}
}

func (t *tracer) stamp(id uint64, op string) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.stamps[stampKey{id, op}]
	return s, ok
}

func (t *tracer) addCall(c mappingCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// headerProvider attaches the request ID a sender has in flight.
func headerProvider(cur *atomic.Uint64) container.HeaderProvider {
	return func(string, []string) []soap.HeaderEntry {
		return []soap.HeaderEntry{{Name: requestIDHeader, Value: strconv.FormatUint(cur.Load(), 10)}}
	}
}

// mappingCounts counts getPR and publishPR calls into the Mapping Layer;
// every run counts, only traced runs time.
type mappingCounts struct {
	getPR, publish atomic.Int64
}

// layerApp decorates the star wrapper the site serves: it counts the
// Mapping-Layer calls and, in traced runs, records their spans. It forwards
// every optional interface the production path uses (ResultAppender,
// ResultWriter, EngineStats), so a traced site takes the same code path
// as an untraced one.
type layerApp struct {
	inner  *mapping.StarWrapper
	counts *mappingCounts
	tr     *tracer // nil in untraced runs
}

var (
	_ mapping.ApplicationWrapper = (*layerApp)(nil)
	_ mapping.ResultAppender     = (*layerExec)(nil)
	_ mapping.ResultWriter       = (*layerExec)(nil)
)

func (a *layerApp) begin() int64 {
	if a.tr == nil {
		return 0
	}
	return a.tr.clk.now()
}

func (a *layerApp) end(op string, exec int32, key string, start int64) {
	if a.tr != nil {
		a.tr.addCall(mappingCall{op: op, exec: exec, key: key, start: start, end: a.tr.clk.now()})
	}
}

func (a *layerApp) AppInfo() ([]perfdata.KV, error) { return a.inner.AppInfo() }
func (a *layerApp) AllExecIDs() ([]string, error)   { return a.inner.AllExecIDs() }
func (a *layerApp) ExecIDs(attr, value string) ([]string, error) {
	return a.inner.ExecIDs(attr, value)
}

// EngineStats forwards the store's engine counters.
func (a *layerApp) EngineStats() minidb.EngineStats { return a.inner.EngineStats() }

func (a *layerApp) NumExecs() (int, error) {
	t := a.begin()
	n, err := a.inner.NumExecs()
	a.end(opNumExecs, -1, "", t)
	return n, err
}

func (a *layerApp) ExecQueryParams() ([]perfdata.Attribute, error) {
	t := a.begin()
	attrs, err := a.inner.ExecQueryParams()
	a.end(opExecQueryParams, -1, "", t)
	return attrs, err
}

// ExecutionWrapper decorates the execution wrapper. The star wrapper's
// execution wrapper implements ResultAppender and ResultWriter (and not
// EngineStats, which the application wrapper reports); a wrapper without
// them would send core down another path, so it is refused.
func (a *layerApp) ExecutionWrapper(id string) (mapping.ExecutionWrapper, error) {
	ew, err := a.inner.ExecutionWrapper(id)
	if err != nil {
		return nil, err
	}
	ap, ok1 := ew.(mapping.ResultAppender)
	rw, ok2 := ew.(mapping.ResultWriter)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("perfbench: execution wrapper %T lacks ResultAppender or ResultWriter", ew)
	}
	n, err := strconv.Atoi(id)
	if err != nil {
		return nil, fmt.Errorf("perfbench: execution id %q: %w", id, err)
	}
	return &layerExec{app: a, inner: ew, appender: ap, writer: rw, exec: int32(n - 1)}, nil
}

// layerExec decorates one execution wrapper.
type layerExec struct {
	app      *layerApp
	inner    mapping.ExecutionWrapper
	appender mapping.ResultAppender
	writer   mapping.ResultWriter
	exec     int32 // execution index (ID - 1)
}

func (e *layerExec) Info() ([]perfdata.KV, error)              { return e.inner.Info() }
func (e *layerExec) Foci() ([]string, error)                   { return e.inner.Foci() }
func (e *layerExec) Metrics() ([]string, error)                { return e.inner.Metrics() }
func (e *layerExec) Types() ([]string, error)                  { return e.inner.Types() }
func (e *layerExec) TimeStartEnd() (perfdata.TimeRange, error) { return e.inner.TimeStartEnd() }

func (e *layerExec) key(q perfdata.Query) string {
	if e.app.tr == nil {
		return ""
	}
	return q.Key()
}

func (e *layerExec) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	e.app.counts.getPR.Add(1)
	t := e.app.begin()
	rs, err := e.inner.PerformanceResults(q)
	e.app.end(opGetPR, e.exec, e.key(q), t)
	return rs, err
}

func (e *layerExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	e.app.counts.getPR.Add(1)
	t := e.app.begin()
	rs, err := e.appender.AppendPerformanceResults(q, dst)
	e.app.end(opGetPR, e.exec, e.key(q), t)
	return rs, err
}

func (e *layerExec) PublishResults(rs []perfdata.Result) error {
	e.app.counts.publish.Add(1)
	t := e.app.begin()
	err := e.writer.PublishResults(rs)
	e.app.end(opPublishPR, e.exec, "", t)
	return err
}

// span is one traced interval. Spans of one request share ID; Parent
// names the enclosing span of the same request.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// attribute assigns every mapping call to the wire call it ran under:
// the call with the same operation, execution and query key whose server
// interval [arrival stamp, reply] contains it, preferring the latest
// arrival not yet given a mapping call. It returns the mapping time per
// wire call and the calls left unattributed.
func attribute(recs []*rec, calls []mappingCall) (map[*wireCall]int64, []mappingCall, map[*wireCall][]mappingCall) {
	type mk struct {
		op   string
		exec int32
		key  string
	}
	idx := make(map[mk][]*wireCall)
	for _, r := range recs {
		for i := range r.calls[:r.n] {
			c := &r.calls[i]
			if c.stamp < 0 {
				continue
			}
			k := mk{c.op, r.exec, r.key}
			if c.op != opGetPR && c.op != opPublishPR {
				k.exec, k.key = -1, ""
			} else if c.op == opPublishPR {
				k.key = ""
			}
			idx[k] = append(idx[k], c)
		}
	}
	for _, cs := range idx {
		sort.Slice(cs, func(i, j int) bool { return cs[i].stamp < cs[j].stamp })
	}
	got := make(map[*wireCall]int64)
	spans := make(map[*wireCall][]mappingCall)
	var lost []mappingCall
	for _, m := range calls {
		cs := idx[mk{m.op, m.exec, m.key}]
		var pick, fallback *wireCall
		for i := len(cs) - 1; i >= 0; i-- {
			c := cs[i]
			if c.stamp > m.start || m.end > c.reply {
				continue
			}
			if fallback == nil {
				fallback = c
			}
			if _, taken := got[c]; !taken {
				pick = c
				break
			}
		}
		if pick == nil {
			pick = fallback
		}
		if pick == nil {
			lost = append(lost, m)
			continue
		}
		got[pick] += m.end - m.start
		spans[pick] = append(spans[pick], m)
	}
	return got, lost, spans
}

// writeSpans writes every request's spans, one JSON object per line.
func writeSpans(path string, recs []*rec, spans map[*wireCall][]mappingCall) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	emit := func(s span) {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	for _, r := range recs {
		first, last := r.calls[0].start, r.calls[r.n-1].end
		if r.due < first {
			emit(span{ID: r.id, Name: "loadgen.wait", Start: r.due, End: first})
		}
		emit(span{ID: r.id, Name: "client", Start: first, End: last})
		for i := range r.calls[:r.n] {
			c := &r.calls[i]
			if c.stamp < 0 {
				continue
			}
			emit(span{ID: r.id, Name: "container.arrive", Parent: "client", Start: c.start, End: c.stamp})
			emit(span{ID: r.id, Name: "server." + c.op, Parent: "client", Start: c.stamp, End: c.reply})
			if c.end > c.reply {
				emit(span{ID: r.id, Name: "client.parse", Parent: "client", Start: c.reply, End: c.end})
			}
			for _, m := range spans[c] {
				emit(span{ID: r.id, Name: "mapping." + m.op, Parent: "server." + c.op, Start: m.start, End: m.end})
			}
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
