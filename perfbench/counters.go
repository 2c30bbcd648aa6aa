package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"pperfgrid/internal/minidb"
)

// snapshot holds every layer's counters at one boundary of the measured
// window.
type snapshot struct {
	// core, summed over the Execution instances
	hits, misses, evictions, encodes, coalesced, invalidated int64
	// container (the site's single host)
	requests, faults, sheds int64
	// minidb
	eng minidb.EngineStats
	// mapping, from the benchmark's decorator
	mapGetPR, mapPublish int64
	// runtime
	gcCycles, allocObjects, allocBytes uint64
	gcPauseSec                         float64
	cpu                                time.Duration // process user + system time
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// histogramSum estimates a histogram's total from its bucket midpoints.
func histogramSum(h *metrics.Float64Histogram) float64 {
	t := 0.0
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		t += float64(c) * (lo + hi) / 2
	}
	return t
}

func (st *stand) snapshot() snapshot {
	var s snapshot
	for i := range st.handles {
		for _, svc := range st.site.ExecutionServices(st.cfg.ExecID(i)) {
			cs := svc.CacheStats()
			s.hits += cs.Hits
			s.misses += cs.Misses
			s.evictions += cs.Evictions
			s.encodes += svc.WireEncodes()
			s.coalesced += svc.CoalescedQueries()
			s.invalidated += svc.Invalidations()
		}
	}
	for _, c := range st.site.Containers() {
		s.requests += c.Requests()
		s.faults += c.Faults()
		s.sheds += c.Sheds()
	}
	s.eng = st.star.EngineStats()
	s.mapGetPR = st.counts.getPR.Load()
	s.mapPublish = st.counts.publish.Load()
	rt := readRuntime()
	s.gcCycles = rt[0].Value.Uint64()
	s.allocObjects = rt[1].Value.Uint64()
	s.allocBytes = rt[2].Value.Uint64()
	s.gcPauseSec = histogramSum(rt[3].Value.Float64Histogram())
	s.cpu = processCPU()
	return s
}

// processCPU returns the CPU time the process has used, clients and site
// together. Time the host steals from the process is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readRuntime()[4].Value.Uint64()) / (1 << 20)
}

// walTally accumulates the WAL growth and fsyncs observed across each
// publish. A publish during which a checkpoint rolled the WAL over is
// left out of the byte figure, since the log's size restarted. Only the
// publisher goroutine writes it; it is read after that goroutine ends.
type walTally struct {
	bytes, fsyncs          int64
	byteSamples, publishes int64
}

func (w *walTally) add(before, after minidb.EngineStats) {
	w.publishes++
	w.fsyncs += after.WALFsyncs - before.WALFsyncs
	if after.Checkpoints == before.Checkpoints {
		w.bytes += after.WALBytes - before.WALBytes
		w.byteSamples++
	}
}
