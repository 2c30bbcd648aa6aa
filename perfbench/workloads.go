package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
)

// Site and store configuration shared by every workload. The byte budget
// is per Execution instance (each instance owns its own results cache);
// one shard keeps the whole budget available to every entry, because the
// default shard split would cap an entry at 64 KiB and make the largest
// hot replies uncacheable.
const (
	cacheBytes     = 128 << 10
	cacheShards    = 1
	pageCacheBytes = 24 << 20 // ingest only; below the decoded working set

	hotSetSize   = 256 // distinct queries of hot-getpr
	hotResults   = 190 // results per hot-getpr reply
	zipfS        = 1.2 // skew of metric and hot-set popularity, as datagen's
	openSenders  = 8   // open-loop sender goroutines, one client each
	sampleEvery  = 16  // every n-th getPR reply is checked against the store
	setupReps    = 3   // set-ups per plain run; setup_s is their median
	openShare    = 0.8 // share of --seconds spent in the open-loop phase
	publishBatch = 1   // results per ingest publish
)

// publishedMetric names the metric of every result ingest publishes. No
// read query asks for it, so reads sampled during the run stay comparable
// with a direct wrapper call made after it.
const publishedMetric = "published_bytes"

// workload is one traffic mix over one store. README.md gives why each
// exists and which layers it isolates.
type workload struct {
	name  string
	scale datagen.ScaleConfig
	disk  bool    // store on the disk engine
	hot   bool    // reads draw from the fixed hot set, else distinct queries
	rate  float64 // open-loop getPR/s; 0 means the workload has no getPR
	tailQ float64 // tail percentile reported as tail_ms
	// publishEvery spaces ingest's publishes on a fixed schedule across
	// the open-loop phase; 0 means the workload does not write.
	publishEvery time.Duration
	browse       bool // closed-loop discovery analysts instead of getPR
}

var workloads = map[string]*workload{
	"hot-getpr": {
		name: "hot-getpr",
		hot:  true, rate: 1000, tailQ: 0.90,
	},
	"cold-getpr": {
		name: "cold-getpr",
		rate: 200, tailQ: 0.90,
	},
	"ingest": {
		name: "ingest",
		disk: true, rate: 170, tailQ: 0.99,
		publishEvery: 10 * time.Second,
	},
	"browse": {
		name:   "browse",
		scale:  datagen.ScaleConfig{Executions: 100000, ResultsPerExec: 10},
		browse: true, tailQ: 0.90,
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// query is one getPR request: the execution (index into the store's
// execution order) and the query with its precomputed wire parameters.
type query struct {
	exec   int
	q      perfdata.Query
	params []string
}

func newQuery(exec int, metric string, lo, hi float64) query {
	q := perfdata.Query{Metric: metric, Time: perfdata.TimeRange{Start: lo, End: hi}, Type: perfdata.UndefinedType}
	return query{exec: exec, q: q, params: q.WireParams()}
}

// metricName is the name datagen gives the i-th scale metric.
func metricName(i int) string {
	n := len(datagen.SMG98Metrics)
	return fmt.Sprintf("%s_%d", datagen.SMG98Metrics[i%n], i/n)
}

// streamRNG returns the deterministic generator of one traffic stream.
func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 17))
}

// Stream numbers, so every generator of a run draws independently.
const (
	streamHotSet = iota
	streamOpen
	streamPublish
	streamClosed // + worker index
)

// traffic generates a workload's requests from the run's seed.
type traffic struct {
	cfg     datagen.ScaleConfig
	spacing float64 // time-axis distance between execution starts
	span    float64 // cold query window length
	hot     []query
}

func newTraffic(cfg datagen.ScaleConfig, seed int64, store mapping.ApplicationWrapper) (*traffic, error) {
	lo0, hi0 := cfg.TimeWindow(0)
	lo1, _ := cfg.TimeWindow(1)
	t := &traffic{cfg: cfg, spacing: lo1 - lo0, span: 1.7 * (hi0 - lo0)}
	rng := streamRNG(seed, streamHotSet)
	n := hotSetSize
	if n > cfg.Executions {
		n = cfg.Executions
	}
	// Every hot query asks for the most frequent metric over the leading
	// share of its execution that holds about hotResults results, so the
	// Zipf head's reply size does not depend on which execution it drew.
	share := hotResults / (float64(cfg.ResultsPerExec) * zipfHead(cfg.Metrics))
	for _, e := range rng.Perm(cfg.Executions)[:n] {
		ew, err := store.ExecutionWrapper(cfg.ExecID(e))
		if err != nil {
			return nil, err
		}
		tr, err := ew.TimeStartEnd()
		if err != nil {
			return nil, err
		}
		t.hot = append(t.hot, newQuery(e, metricName(0), tr.Start, tr.Start+share*(tr.End-tr.Start)))
	}
	return t, nil
}

// zipfHead is the probability of rank 0 under datagen's Zipf(s, v=1)
// over n values.
func zipfHead(n int) float64 {
	h := 0.0
	for k := 1; k <= n; k++ {
		h += math.Pow(float64(k), -zipfS)
	}
	return 1 / h
}

// hotPicker draws hot-set queries with Zipf popularity by rank.
func (t *traffic) hotPicker(rng *rand.Rand) func() query {
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(t.hot)-1))
	return func() query { return t.hot[z.Uint64()] }
}

// coldPicker draws distinct queries: uniform execution, Zipf metric, and
// a window with a random start inside the execution, so no two requests
// share a cache key.
func (t *traffic) coldPicker(rng *rand.Rand) func() query {
	metric := rand.NewZipf(rng, zipfS, 1, uint64(t.cfg.Metrics-1))
	return func() query {
		e := rng.Intn(t.cfg.Executions)
		lo, _ := t.cfg.TimeWindow(e)
		lo += rng.Float64()
		return newQuery(e, metricName(int(metric.Uint64())), lo, lo+t.span)
	}
}

// picker returns the read generator of workload w.
func (t *traffic) picker(w *workload, rng *rand.Rand) func() query {
	if w.hot {
		return t.hotPicker(rng)
	}
	return t.coldPicker(rng)
}

// publishBatchAt returns ingest's k-th publish: its execution and
// publishBatch results of publishedMetric whose times lie in a window far
// past every execution, unique to k.
func (t *traffic) publishBatchAt(seed int64, k int, foci []string) (int, []perfdata.Result) {
	rng := streamRNG(seed, streamPublish*1_000_000+k)
	exec := rng.Intn(t.cfg.Executions)
	base := t.readBackBase(k)
	rs := make([]perfdata.Result, publishBatch)
	for j := range rs {
		start := base + float64(j)*0.01
		rs[j] = perfdata.Result{
			Metric: publishedMetric,
			Focus:  foci[(k+j)%len(foci)],
			Type:   "collector_1",
			Time:   perfdata.TimeRange{Start: start, End: start + 0.005},
			Value:  float64(rng.Intn(1 << 20)),
		}
	}
	return exec, rs
}

func (t *traffic) readBackBase(k int) float64 {
	return float64(t.cfg.Executions)*t.spacing*10 + float64(k)
}

// readBack is the getPR that must return exactly publish k's batch.
func (t *traffic) readBack(exec, k int) query {
	base := t.readBackBase(k)
	return newQuery(exec, publishedMetric, base-0.001, base+0.5)
}

// browseExpect is what the discovery calls must answer for a scale store:
// the generator's execution count and its attribute vocabularies, in the
// wrapper's ORDER BY (text) order.
func browseExpect(cfg datagen.ScaleConfig) (int, []perfdata.Attribute) {
	procs := []string{}
	for p := 2; p <= 32; p *= 2 {
		procs = append(procs, strconv.Itoa(p))
	}
	sort.Strings(procs)
	apps := []string{"hpl", "smg98", "sppm", "sweep3d"}
	return cfg.Executions, []perfdata.Attribute{
		{Name: "application", Values: apps},
		{Name: "numprocesses", Values: procs},
	}
}
