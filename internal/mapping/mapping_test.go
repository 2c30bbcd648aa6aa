package mapping

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
)

// wrapperSet builds every wrapper family over the same dataset, so
// conformance tests can compare them against the Memory oracle.
func wrapperSet(t *testing.T, d *datagen.Dataset) map[string]ApplicationWrapper {
	t.Helper()
	wide, err := NewWideTable(d)
	if err != nil {
		// Datasets with repeated metrics per execution don't fit a wide
		// table; callers pass wideOK datasets when they want it included.
		wide = nil
	}
	star, err := NewStar(d)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewFlatFile(d)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewXML(d)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]ApplicationWrapper{
		"memory": NewMemory(d),
		"star":   star,
		"flat":   flat,
		"xml":    x,
	}
	if wide != nil {
		set["wide"] = wide
	}
	return set
}

func sortedResults(rs []perfdata.Result) []string {
	out := perfdata.EncodeResults(rs)
	sort.Strings(out)
	return out
}

// TestWrapperConformance runs every wrapper family over identical data and
// requires identical answers for the full Table 1 + Table 2 operation set.
func TestWrapperConformance(t *testing.T) {
	hpl := datagen.HPL(datagen.HPLConfig{Executions: 8, Seed: 11})
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 3, MessageSizes: 5, Seed: 12})
	for name, d := range map[string]*datagen.Dataset{"hpl": hpl, "rma": rma} {
		d := d
		t.Run(name, func(t *testing.T) {
			set := wrapperSet(t, d)
			oracle := set["memory"]

			wantN, _ := oracle.NumExecs()
			wantIDs, _ := oracle.AllExecIDs()
			sort.Strings(wantIDs)
			wantParams, _ := oracle.ExecQueryParams()

			for wname, w := range set {
				if wname == "memory" {
					continue
				}
				n, err := w.NumExecs()
				if err != nil || n != wantN {
					t.Errorf("%s.NumExecs = %d, %v; want %d", wname, n, err, wantN)
				}
				ids, err := w.AllExecIDs()
				if err != nil {
					t.Fatalf("%s.AllExecIDs: %v", wname, err)
				}
				sort.Strings(ids)
				if !reflect.DeepEqual(ids, wantIDs) {
					t.Errorf("%s.AllExecIDs = %v, want %v", wname, ids, wantIDs)
				}
				params, err := w.ExecQueryParams()
				if err != nil {
					t.Fatalf("%s.ExecQueryParams: %v", wname, err)
				}
				if !reflect.DeepEqual(params, wantParams) {
					t.Errorf("%s.ExecQueryParams = %+v, want %+v", wname, params, wantParams)
				}
			}

			// Attribute queries agree for every attribute/value pair.
			for _, p := range wantParams {
				for _, v := range p.Values {
					want, _ := oracle.ExecIDs(p.Name, v)
					sort.Strings(want)
					for wname, w := range set {
						got, err := w.ExecIDs(p.Name, v)
						if err != nil {
							t.Fatalf("%s.ExecIDs(%s,%s): %v", wname, p.Name, v, err)
						}
						sort.Strings(got)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s.ExecIDs(%s,%s) = %v, want %v", wname, p.Name, v, got, want)
						}
					}
				}
			}

			// Execution-level conformance on the first execution.
			id := wantIDs[0]
			oe, _ := oracle.ExecutionWrapper(id)
			wantFoci, _ := oe.Foci()
			wantMetrics, _ := oe.Metrics()
			wantTypes, _ := oe.Types()
			wantTime, _ := oe.TimeStartEnd()
			fullQ := perfdata.Query{
				Metric: wantMetrics[0],
				Time:   perfdata.TimeRange{Start: wantTime.Start, End: wantTime.End + 1},
				Type:   perfdata.UndefinedType,
			}
			wantRS, _ := oe.PerformanceResults(fullQ)

			for wname, w := range set {
				ew, err := w.ExecutionWrapper(id)
				if err != nil {
					t.Fatalf("%s.ExecutionWrapper(%s): %v", wname, id, err)
				}
				if foci, _ := ew.Foci(); !reflect.DeepEqual(foci, wantFoci) {
					t.Errorf("%s.Foci = %v, want %v", wname, foci, wantFoci)
				}
				if ms, _ := ew.Metrics(); !reflect.DeepEqual(ms, wantMetrics) {
					t.Errorf("%s.Metrics = %v, want %v", wname, ms, wantMetrics)
				}
				if ts, _ := ew.Types(); !reflect.DeepEqual(ts, wantTypes) {
					t.Errorf("%s.Types = %v, want %v", wname, ts, wantTypes)
				}
				tr, err := ew.TimeStartEnd()
				if err != nil || tr != wantTime {
					t.Errorf("%s.TimeStartEnd = %+v, %v; want %+v", wname, tr, err, wantTime)
				}
				rs, err := ew.PerformanceResults(fullQ)
				if err != nil {
					t.Fatalf("%s.PerformanceResults: %v", wname, err)
				}
				if !reflect.DeepEqual(sortedResults(rs), sortedResults(wantRS)) {
					t.Errorf("%s.PerformanceResults differs from oracle:\n got %v\nwant %v",
						wname, sortedResults(rs), sortedResults(wantRS))
				}
			}
		})
	}
}

// TestStarWrapperFilters exercises the star wrapper's focus, time, and
// type filters against the oracle on SMG98-shaped data (which only the
// star and file wrappers can hold).
func TestStarWrapperFilters(t *testing.T) {
	d := datagen.SMG98(datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 4, Seed: 13})
	star, err := NewStar(d)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewMemory(d)

	id := d.Execs[0].ID
	se, err := star.ExecutionWrapper(id)
	if err != nil {
		t.Fatal(err)
	}
	me, _ := oracle.ExecutionWrapper(id)

	tr, _ := me.TimeStartEnd()
	queries := []perfdata.Query{
		// Focus subtree: one process.
		{Metric: "func_calls", Foci: []string{"/Process/0"}, Time: tr, Type: "vampir"},
		// Focus subtree: one MPI function under one process.
		{Metric: "excl_time", Foci: []string{"/Process/1/Code/MPI/MPI_Send"}, Time: tr, Type: "vampir"},
		// Two foci OR'd together.
		{Metric: "func_calls", Foci: []string{"/Process/0/Code/MPI/MPI_Barrier", "/Process/1/Code/MPI/MPI_Bcast"}, Time: tr, Type: "vampir"},
		// Time window: middle half.
		{Metric: "msg_bytes", Time: perfdata.TimeRange{Start: tr.End / 4, End: tr.End / 2}, Type: "vampir"},
		// UNDEFINED type.
		{Metric: "incl_time", Time: tr, Type: perfdata.UndefinedType},
		// Unknown metric.
		{Metric: "nope", Time: tr, Type: "vampir"},
		// Unknown type.
		{Metric: "func_calls", Time: tr, Type: "paradyn"},
		// Root focus.
		{Metric: "func_calls", Foci: []string{"/"}, Time: tr, Type: "vampir"},
	}
	for _, q := range queries {
		want, _ := me.PerformanceResults(q)
		got, err := se.PerformanceResults(q)
		if err != nil {
			t.Fatalf("star getPR %v: %v", q, err)
		}
		if !reflect.DeepEqual(sortedResults(got), sortedResults(want)) {
			t.Errorf("star getPR %+v: got %d results, oracle %d", q, len(got), len(want))
		}
	}
}

func TestNoSuchExecution(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 3, Seed: 14})
	for name, w := range wrapperSet(t, d) {
		if _, err := w.ExecutionWrapper("bogus"); !errors.Is(err, ErrNoSuchExecution) {
			t.Errorf("%s: got %v", name, err)
		}
	}
}

func TestExecIDsNoMatches(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 3, Seed: 15})
	for name, w := range wrapperSet(t, d) {
		ids, err := w.ExecIDs("numprocesses", "9999")
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(ids) != 0 {
			t.Errorf("%s: matched %v", name, ids)
		}
	}
}

func TestWideWrapperFocusFilter(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 2, Seed: 16})
	w, err := NewWideTable(d)
	if err != nil {
		t.Fatal(err)
	}
	ew, _ := w.ExecutionWrapper(d.Execs[0].ID)
	tr, _ := ew.TimeStartEnd()
	// Whole-run metrics live at "/"; a non-root focus returns nothing.
	rs, err := ew.PerformanceResults(perfdata.Query{
		Metric: "gflops", Foci: []string{"/Process/3"}, Time: tr, Type: "hpl"})
	if err != nil || len(rs) != 0 {
		t.Errorf("non-root focus: %v, %v", rs, err)
	}
	rs, err = ew.PerformanceResults(perfdata.Query{
		Metric: "gflops", Foci: []string{"/"}, Time: tr, Type: "hpl"})
	if err != nil || len(rs) != 1 {
		t.Errorf("root focus: %v, %v", rs, err)
	}
}

func TestSQLInjectionResistance(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 2, Seed: 17})
	wide, err := NewWideTable(d)
	if err != nil {
		t.Fatal(err)
	}
	star, err := NewStar(d)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []string{
		"x' OR '1'='1",
		"'; DROP TABLE executions; --",
		"100'; DELETE FROM executions WHERE '1'='1",
	}
	for _, payload := range hostile {
		// Attribute values are quoted; hostile payloads match nothing.
		if ids, err := wide.ExecIDs("numprocesses", payload); err != nil || len(ids) != 0 {
			t.Errorf("wide.ExecIDs(%q) = %v, %v", payload, ids, err)
		}
		if ids, err := star.ExecIDs("numprocesses", payload); err != nil || len(ids) != 0 {
			t.Errorf("star.ExecIDs(%q) = %v, %v", payload, ids, err)
		}
		// Attribute *names* are identifiers and must be rejected outright.
		if _, err := wide.ExecIDs(payload, "2"); err == nil {
			t.Errorf("wide.ExecIDs with hostile attr name: want error")
		}
		// Hostile execution IDs are quoted values.
		if _, err := wide.ExecutionWrapper(payload); !errors.Is(err, ErrNoSuchExecution) {
			t.Errorf("wide.ExecutionWrapper(%q): %v", payload, err)
		}
		if _, err := star.ExecutionWrapper(payload); !errors.Is(err, ErrNoSuchExecution) {
			t.Errorf("star.ExecutionWrapper(%q): %v", payload, err)
		}
	}
	// Tables are intact afterwards.
	if n, _ := wide.NumExecs(); n != 2 {
		t.Errorf("wide table damaged: %d execs", n)
	}
	if n, _ := star.NumExecs(); n != 2 {
		t.Errorf("star schema damaged: %d execs", n)
	}
}

func TestLatencyDecorator(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 2, Seed: 18})
	base := NewMemory(d)
	const delay = 20 * time.Millisecond
	slow := WithLatency(base, delay, 0)

	start := time.Now()
	if _, err := slow.NumExecs(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("NumExecs took %v, want >= %v", elapsed, delay)
	}

	ew, err := slow.ExecutionWrapper(d.Execs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ew.TimeStartEnd()
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	rs, err := ew.PerformanceResults(perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"})
	if err != nil || len(rs) != 1 {
		t.Fatalf("getPR: %v, %v", rs, err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("getPR took %v, want >= %v", elapsed, delay)
	}
	// Results pass through unchanged.
	direct, _ := base.ExecutionWrapper(d.Execs[0].ID)
	want, _ := direct.PerformanceResults(perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"})
	if !reflect.DeepEqual(rs, want) {
		t.Error("latency decorator altered results")
	}
}

func TestPerResultLatency(t *testing.T) {
	d := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 10, Seed: 19})
	slow := WithLatency(NewMemory(d), 0, time.Millisecond)
	ew, err := slow.ExecutionWrapper("1")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := ew.TimeStartEnd()
	start := time.Now()
	rs, err := ew.PerformanceResults(perfdata.Query{Metric: "bandwidth", Time: tr, Type: "presta"})
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(len(rs)) * time.Millisecond
	if elapsed := time.Since(start); elapsed < want {
		t.Errorf("getPR took %v, want >= %v for %d results", elapsed, want, len(rs))
	}
}

func TestIdentOK(t *testing.T) {
	good := []string{"a", "runid", "num_processes", "a9"}
	bad := []string{"", "9a", "a-b", "a b", "a;b", "a'b", "日本"}
	for _, s := range good {
		if !identOK(s) {
			t.Errorf("identOK(%q) = false", s)
		}
	}
	for _, s := range bad {
		if identOK(s) {
			t.Errorf("identOK(%q) = true", s)
		}
	}
}

func TestMemoryWrapperBasics(t *testing.T) {
	m := &Memory{
		Name: "X",
		Meta: []perfdata.KV{{Name: "name", Value: "X"}},
		Execs: []MemoryExecution{
			{ID: "1", Attrs: map[string]string{"n": "2"}, Time: perfdata.TimeRange{Start: 0, End: 10},
				Results: []perfdata.Result{{Metric: "m", Focus: "/", Type: "t", Time: perfdata.TimeRange{Start: 0, End: 10}, Value: 5}}},
			{ID: "2", Attrs: map[string]string{"n": "4"}, Time: perfdata.TimeRange{Start: 0, End: 10}},
		},
	}
	info, _ := m.AppInfo()
	if len(info) != 1 || info[0].Value != "X" {
		t.Errorf("AppInfo = %v", info)
	}
	ids, _ := m.ExecIDs("n", "4")
	if !reflect.DeepEqual(ids, []string{"2"}) {
		t.Errorf("ExecIDs = %v", ids)
	}
	ew, _ := m.ExecutionWrapper("2")
	foci, _ := ew.Foci()
	if len(foci) != 0 {
		t.Errorf("Foci of resultless exec = %v", foci)
	}
}

// TestStarDiscoveryAccessPaths pins the access paths behind the star
// wrapper's discovery calls on a scale store: NumExecs, both
// ExecQueryParams shapes and AllExecIDs answer from hash-index buckets
// (index-distinct), while a DISTINCT over the 16 metricid buckets of
// every fact row under a 10-row execid probe keeps the probe path.
func TestStarDiscoveryAccessPaths(t *testing.T) {
	db := minidb.NewDatabase()
	cfg, err := datagen.LoadScaleStar(db, datagen.ScaleConfig{Executions: 400, ResultsPerExec: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := DeclareStarIndexes(db); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql    string
		args   []minidb.Value
		access string
	}{
		{"SELECT COUNT(DISTINCT execid) FROM executions", nil, "index-distinct"},
		{"SELECT DISTINCT attrname FROM executions ORDER BY attrname", nil, "index-distinct"},
		{"SELECT DISTINCT attrvalue FROM executions WHERE attrname = ? ORDER BY attrvalue",
			[]minidb.Value{minidb.Text("application")}, "index-distinct"},
		{"SELECT DISTINCT attrvalue FROM executions WHERE attrname = ? ORDER BY attrvalue",
			[]minidb.Value{minidb.Text("numprocesses")}, "index-distinct"},
		{"SELECT DISTINCT execid FROM executions ORDER BY execid", nil, "index-distinct"},
		{"SELECT DISTINCT metricid FROM results WHERE execid = ?",
			[]minidb.Value{minidb.Text(cfg.ExecID(7))}, "index-eq"},
	} {
		stmt, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		info, err := stmt.Explain(c.args...)
		if err != nil {
			t.Fatal(err)
		}
		if info.Access != c.access {
			t.Errorf("%s %v: access %s, want %s", c.sql, c.args, info.Access, c.access)
		}
	}
	star := &StarWrapper{DB: db}
	if n, err := star.NumExecs(); err != nil || n != cfg.Executions {
		t.Fatalf("NumExecs = %d, %v; want %d", n, err, cfg.Executions)
	}
	attrs, err := star.ExecQueryParams()
	if err != nil {
		t.Fatal(err)
	}
	want := []perfdata.Attribute{
		{Name: "application", Values: []string{"hpl", "smg98", "sppm", "sweep3d"}},
		{Name: "numprocesses", Values: []string{"16", "2", "32", "4", "8"}},
	}
	if !reflect.DeepEqual(attrs, want) {
		t.Errorf("ExecQueryParams = %v, want %v", attrs, want)
	}
}
