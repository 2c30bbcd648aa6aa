package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/core"
	"pperfgrid/internal/perfdata"
)

const (
	opGetPR           = core.OpGetPR
	opPublishPR       = core.OpPublishPR
	opNumExecs        = core.OpGetNumExecs
	opExecQueryParams = core.OpGetExecQueryParams
)

// wireCall is one SOAP round trip of a request on the run's clock: issued
// (start), SOAP reply decoded (reply), result parsed (end), and the
// server's arrival stamp (-1 when untraced or not seen).
type wireCall struct {
	op                       string
	start, reply, end, stamp int64
}

// rec is one request: a getPR, a publish, or a browse round (NumExecs
// then ExecQueryParams). due is when it was scheduled; closed-loop
// requests are due when issued.
type rec struct {
	id    uint64
	exec  int32
	key   string // getPR query key, traced runs only
	due   int64
	calls [2]wireCall
	n     int
	ok    bool
}

func (r *rec) latencyMs() float64 { return float64(r.calls[r.n-1].end-r.due) / 1e6 }

// sample is a getPR reply kept for the correctness gate.
type sample struct {
	q      query
	digest [32]byte
}

// digest hashes a result list's perfdata encoding.
func digest(rs []perfdata.Result) [32]byte {
	return sha256.Sum256([]byte(strings.Join(perfdata.EncodeResults(rs), "\n")))
}

// sender is one client session issuing requests sequentially. Each has
// its own client so its header provider can attach the ID of the request
// it has in flight.
type sender struct {
	st      *stand
	client  *client.Client
	binding *client.Binding
	refs    []*client.ExecutionRef // by execution index
	cur     atomic.Uint64

	recs    []*rec
	samples []sample
	failed  int64
	errs    []error
}

func newSender(st *stand) (*sender, error) {
	s := &sender{st: st, client: client.NewWithoutRegistry()}
	if st.tr != nil {
		s.client.SetCredential(headerProvider(&s.cur))
	}
	b, err := s.client.BindFactory("perfbench", st.site.ApplicationFactoryHandle())
	if err != nil {
		return nil, err
	}
	s.binding = b
	if st.handles != nil {
		if s.refs, err = b.ResolveExecutions(st.handles); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *sender) begin(exec int, due int64, n int) *rec {
	r := &rec{id: s.st.ids.Add(1), exec: int32(exec), due: due, n: n}
	s.cur.Store(r.id)
	return r
}

func (s *sender) finish(r *rec, err error) {
	r.ok = err == nil
	s.recs = append(s.recs, r)
	if err != nil {
		s.failed++
		if len(s.errs) < 3 {
			s.errs = append(s.errs, err)
		}
	}
}

// getPR runs one getPR as client.ExecutionRef.PerformanceResults does —
// the SOAP call, then the perfdata parse — timing the two halves. due < 0
// marks a closed-loop request.
func (s *sender) getPR(q *query, due int64, check bool) {
	clk := s.st.clk
	r := s.begin(q.exec, due, 1)
	if s.st.tr != nil {
		r.key = q.q.Key()
	}
	c := &r.calls[0]
	c.op, c.stamp = opGetPR, -1
	c.start = clk.now()
	out, err := s.refs[q.exec].Call(opGetPR, q.params...)
	c.reply = clk.now()
	var rs []perfdata.Result
	if err == nil {
		rs, err = perfdata.ParseResults(out)
	}
	c.end = clk.now()
	if due < 0 {
		r.due = c.start
	}
	s.finish(r, err)
	if err == nil && check {
		s.samples = append(s.samples, sample{q: *q, digest: digest(rs)})
	}
}

// publish runs one publishPR and reports whether it was acknowledged.
func (s *sender) publish(exec int, rs []perfdata.Result, due int64) bool {
	clk := s.st.clk
	r := s.begin(exec, due, 1)
	c := &r.calls[0]
	c.op, c.stamp = opPublishPR, -1
	c.start = clk.now()
	n, err := s.refs[exec].PublishResults(rs)
	c.reply = clk.now()
	c.end = c.reply
	if err == nil && n != len(rs) {
		err = fmt.Errorf("publishPR acknowledged %d of %d results", n, len(rs))
	}
	s.finish(r, err)
	return err == nil
}

// browse runs one discovery round and checks both answers.
func (s *sender) browse(wantN int, wantAttrs []perfdata.Attribute) {
	clk := s.st.clk
	r := s.begin(-1, 0, 1)
	c := &r.calls[0]
	c.op, c.stamp = opNumExecs, -1
	c.start = clk.now()
	r.due = c.start
	n, err := s.binding.NumExecs()
	c.reply = clk.now()
	c.end = c.reply
	var attrs []perfdata.Attribute
	if err == nil {
		r.n = 2
		c = &r.calls[1]
		c.op, c.stamp = opExecQueryParams, -1
		c.start = clk.now()
		attrs, err = s.binding.ExecQueryParams()
		c.reply = clk.now()
		c.end = c.reply
	}
	if err == nil && n != wantN {
		err = fmt.Errorf("NumExecs answered %d, want %d", n, wantN)
	}
	if err == nil && !reflect.DeepEqual(attrs, wantAttrs) {
		err = fmt.Errorf("ExecQueryParams answered %v, want %v", attrs, wantAttrs)
	}
	s.finish(r, err)
}

// drain moves the senders' records out, leaving them empty for the next
// phase.
func drain(ss []*sender) (recs []*rec, samples []sample, failed int64, errs []error) {
	for _, s := range ss {
		recs = append(recs, s.recs...)
		samples = append(samples, s.samples...)
		failed += s.failed
		errs = append(errs, s.errs...)
		s.recs, s.samples, s.failed, s.errs = nil, nil, 0, nil
	}
	return recs, samples, failed, errs
}

// openLoop sends queries[i] at begin + i/rate through the sender pool and
// returns the generator's lateness per request, in ms. Requests are timed
// from their due time, so a stall also delays the requests queued behind
// it.
func openLoop(senders []*sender, rate float64, queries []query) ([]float64, error) {
	timer, err := newDueTimer()
	if err != nil {
		return nil, err
	}
	defer timer.close()
	clk := senders[0].st.clk
	interval := float64(time.Second) / rate
	// Sized to the whole schedule: dispatch never waits on the system.
	jobs := make(chan int, len(queries))
	begin := clk.now() + int64(time.Millisecond)
	due := func(i int) int64 { return begin + int64(float64(i)*interval) }
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s.getPR(&queries[i], due(i), i%sampleEvery == 0)
			}
		}()
	}
	late := make([]float64, len(queries))
	for i := range queries {
		if d := due(i) - clk.now(); d > 0 && err == nil {
			err = timer.sleep(time.Duration(d))
		}
		late[i] = float64(clk.now()-due(i)) / 1e6
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return late, err
}

// closedLoop runs op back to back on every worker until d has passed and
// returns the time until the last op completed.
func closedLoop(workers []*sender, d time.Duration, op func(s *sender, w, k int)) time.Duration {
	clk := workers[0].st.clk
	begin := clk.now()
	deadline := begin + int64(d)
	var wg sync.WaitGroup
	for w, s := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; clk.now() < deadline; k++ {
				op(s, w, k)
			}
		}()
	}
	wg.Wait()
	return time.Duration(clk.now() - begin)
}

// ack is an acknowledged publish, to be read back after the run.
type ack struct {
	k, exec int
	rs      []perfdata.Result
}

// publisher publishes on a fixed schedule — at every/2, then every
// `every`, until end — and returns the acknowledged publishes. Engine
// counters are read around each publish for the per-publish WAL figures.
func publisher(s *sender, seed int64, begin, end int64, every time.Duration, wal *walTally) []ack {
	st := s.st
	var acks []ack
	for k := 0; ; k++ {
		due := begin + int64(every/2) + int64(k)*int64(every)
		if due >= end {
			return acks
		}
		if d := due - st.clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		exec, rs := st.tf.publishBatchAt(seed, k, st.foci)
		before := st.star.EngineStats()
		ok := s.publish(exec, rs, due)
		wal.add(before, st.star.EngineStats())
		if ok {
			acks = append(acks, ack{k: k, exec: exec, rs: rs})
		}
	}
}
