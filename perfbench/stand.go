package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
)

// stand is one set-up system under test: a store, the site serving it,
// and the client sessions that drive it.
type stand struct {
	w      *workload
	cfg    datagen.ScaleConfig
	tf     *traffic
	clk    clock
	tr     *tracer // nil in untraced runs
	ids    atomic.Uint64
	counts mappingCounts

	star *mapping.StarWrapper // the raw wrapper, for direct checks
	site *core.Site
	dir  string // disk store directory (ingest)

	handles []string // Execution GSHs by execution index
	foci    []string // focus paths ingest publishes under

	senders []*sender // open-loop pool
	workers []*sender // closed-loop workers, one per CPU
	pub     *sender   // ingest's publisher

	setup time.Duration
}

// setUp loads the workload's store, starts the site and warms it. The
// returned setup time covers all of it.
func setUp(o options, w *workload, traced bool, rep int) (*stand, error) {
	begin := time.Now()
	st := &stand{w: w, clk: clock{epoch: begin}}
	if traced {
		st.tr = newTracer(st.clk)
	}
	db := minidb.NewDatabase()
	if w.disk {
		st.dir = filepath.Join(o.workdir, fmt.Sprintf("store-%s-%d-%d", w.name, os.Getpid(), rep))
		if err := os.RemoveAll(st.dir); err != nil {
			return nil, err
		}
		var err error
		if db, err = minidb.Open(minidb.Options{Dir: st.dir, PageCacheBytes: pageCacheBytes}); err != nil {
			return nil, err
		}
	}
	st.star = &mapping.StarWrapper{DB: db, Meta: []perfdata.KV{{Name: "name", Value: "SMG98-scale"}}}
	err := st.start(o.seed)
	if err != nil {
		st.close()
		return nil, err
	}
	st.setup = time.Since(begin)
	return st, nil
}

func (st *stand) start(seed int64) error {
	cfg := st.w.scale
	cfg.Seed = seed
	var err error
	if st.cfg, err = datagen.LoadScaleStar(st.star.DB, cfg); err != nil {
		return fmt.Errorf("load store: %w", err)
	}
	if err := mapping.DeclareStarIndexes(st.star.DB); err != nil {
		return err
	}
	if st.tf, err = newTraffic(st.cfg, seed, st.star); err != nil {
		return err
	}
	sc := core.SiteConfig{
		AppName:     "SMG98-scale",
		Wrappers:    []mapping.ApplicationWrapper{&layerApp{inner: st.star, counts: &st.counts, tr: st.tr}},
		CacheBytes:  cacheBytes,
		CacheShards: cacheShards,
	}
	if st.tr != nil {
		sc.Interceptors = []container.Interceptor{st.tr.interceptor()}
	}
	if st.site, err = core.StartSite(sc); err != nil {
		return err
	}
	return st.warmUp(seed)
}

// warmUp creates every Execution instance, opens the client sessions,
// builds the ordered indexes with a first range query, and fills the hot
// set's cache entries, so that timing starts on a warm site.
func (st *stand) warmUp(seed int64) error {
	if !st.w.browse {
		c := client.NewWithoutRegistry()
		defer c.Close()
		b, err := c.BindFactory("perfbench", st.site.ApplicationFactoryHandle())
		if err != nil {
			return err
		}
		refs, err := b.QueryExecutions(nil)
		if err != nil {
			return fmt.Errorf("create executions: %w", err)
		}
		ids, err := st.star.AllExecIDs()
		if err != nil {
			return err
		}
		if len(ids) != len(refs) || len(ids) != st.cfg.Executions {
			return fmt.Errorf("getAllExecs returned %d handles for %d executions", len(refs), len(ids))
		}
		st.handles = make([]string, len(ids))
		for i, id := range ids {
			n, err := strconv.Atoi(id)
			if err != nil || n < 1 || n > len(ids) {
				return fmt.Errorf("unexpected execution id %q", id)
			}
			st.handles[n-1] = refs[i].Handle.String()
		}
	}
	mk := func(n int) ([]*sender, error) {
		out := make([]*sender, n)
		for i := range out {
			s, err := newSender(st)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	var err error
	if st.w.rate > 0 {
		if st.senders, err = mk(openSenders); err != nil {
			return err
		}
	}
	if st.workers, err = mk(runtime.NumCPU()); err != nil {
		return err
	}
	if st.w.publishEvery > 0 {
		ew, err := st.star.ExecutionWrapper(st.cfg.ExecID(0))
		if err != nil {
			return err
		}
		if st.foci, err = ew.Foci(); err != nil {
			return err
		}
		if st.pub, err = newSender(st); err != nil {
			return err
		}
	}
	all := append(append([]*sender(nil), st.senders...), st.workers...)
	if st.w.browse {
		n, attrs := browseExpect(st.cfg)
		each(all, func(s *sender, _ int) { s.browse(n, attrs) })
	} else {
		// One query first: it builds the ordered indexes the others probe.
		rng := streamRNG(seed, streamClosed+1000)
		pick := st.tf.coldPicker(rng)
		q := pick()
		all[0].getPR(&q, -1, false)
		if st.pub != nil {
			q := pick()
			st.pub.getPR(&q, -1, false)
			all = append(all, st.pub)
		}
		if st.w.hot {
			each(all, func(s *sender, i int) {
				for j := i; j < len(st.tf.hot); j += len(all) {
					s.getPR(&st.tf.hot[j], -1, false)
				}
			})
		} else {
			qs := make([]query, len(all))
			for i := range qs {
				qs[i] = pick()
			}
			each(all, func(s *sender, i int) { s.getPR(&qs[i], -1, false) })
		}
	}
	_, _, failed, errs := drain(all)
	if failed > 0 {
		return fmt.Errorf("warm-up: %d requests failed: %v", failed, errs)
	}
	return nil
}

// each runs f on every sender concurrently and waits.
func each(ss []*sender, f func(s *sender, i int)) {
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(s, i)
		}()
	}
	wg.Wait()
}

// close stops the site, closes the store and removes its files.
func (st *stand) close() {
	for _, s := range append(append(append([]*sender(nil), st.senders...), st.workers...), st.pub) {
		if s != nil {
			s.client.Close()
		}
	}
	if st.site != nil {
		st.site.Close()
	}
	if st.star != nil {
		if err := st.star.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close store:", err)
		}
	}
	if st.dir != "" {
		if err := os.RemoveAll(st.dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: remove store:", err)
		}
	}
}

// diskBytes sums the sizes of the files under dir.
func diskBytes(dir string) int64 {
	var n int64
	// The callback skips what it cannot stat and never fails the walk.
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
