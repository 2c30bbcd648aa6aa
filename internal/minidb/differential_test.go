// Differential tests: randomized star-schema queries run through both the
// planned pipeline (hash join, index probes, predicate pushdown — the
// production path behind Database.Query) and the retained naive executor
// (full-materialization nested loop — Database.QueryNaive), asserting
// byte-identical result sets. This is the equivalence proof behind the
// query-engine overhaul; any planner shortcut that changes semantics
// shows up here as a diff.
//
// The file lives in package minidb_test so it can generate realistic data
// through datagen (which itself imports minidb).
package minidb_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
)

// starDB loads an SMG98-shaped star schema and declares exactly the
// indexes the mapping layer declares (mapping.DeclareStarIndexes: the
// hash indexes plus the ordered time/value indexes), so the planned path
// exercises the production index configuration — including the hash
// join's build-side index reuse on the dimension keys and the ordered
// range probes on the fact table.
func starDB(t *testing.T, seed int64) *minidb.Database {
	t.Helper()
	db := minidb.NewDatabase()
	d := datagen.SMG98(datagen.SMG98Config{Executions: 3, Processes: 2, TimeBins: 4, Seed: seed})
	if err := datagen.LoadStarSchema(db, d); err != nil {
		t.Fatal(err)
	}
	if err := mapping.DeclareStarIndexes(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// randStarQuery composes one random query over the star schema from
// building blocks that cover the planner's paths: indexed equality,
// pushed-down single-side filters, hash equi-joins, nested-loop non-equi
// joins, DISTINCT, ORDER BY, LIMIT, aggregates, IN, BETWEEN, LIKE, OR.
func randStarQuery(rng *rand.Rand) string {
	execid := fmt.Sprintf("'%d'", 1+rng.Intn(4)) // occasionally absent (4)
	metricid := 1 + rng.Intn(5)
	fociid := 1 + rng.Intn(20)
	threshold := rng.Float64() * 50

	conds := []string{
		fmt.Sprintf("r.execid = %s", execid),
		fmt.Sprintf("r.metricid = %d", metricid),
		fmt.Sprintf("r.fociid = %d", fociid),
		fmt.Sprintf("r.value > %g", threshold),
		fmt.Sprintf("r.starttime BETWEEN %g AND %g", threshold, threshold+30),
		fmt.Sprintf("r.starttime >= %g", threshold),
		fmt.Sprintf("r.endtime <= %g", threshold+45),
		fmt.Sprintf("r.value BETWEEN %g AND %g", threshold, threshold+25),
		fmt.Sprintf("r.metricid IN (%d, %d)", metricid, 1+rng.Intn(5)),
		fmt.Sprintf("r.execid = %s OR r.fociid = %d", execid, fociid),
		"f.path LIKE '/Process/0/%'",
		"f.path NOT LIKE '%MPI%'",
		fmt.Sprintf("f.fociid != %d", fociid),
	}
	where := ""
	sep := " WHERE "
	for i, n := 0, rng.Intn(4); i < n; i++ {
		where += sep + conds[rng.Intn(len(conds))]
		sep = " AND "
	}

	switch rng.Intn(8) {
	case 0: // hash equi-join, projected columns
		return "SELECT f.path, r.value FROM results r JOIN foci f ON r.fociid = f.fociid" + where
	case 1: // equi-join with ORDER BY and LIMIT
		return "SELECT f.path, r.value FROM results r JOIN foci f ON r.fociid = f.fociid" + where +
			fmt.Sprintf(" ORDER BY r.value DESC, f.path LIMIT %d", 1+rng.Intn(50))
	case 2: // non-equi join: nested-loop fallback
		return "SELECT r.execid, f.fociid FROM results r JOIN foci f ON r.fociid < f.fociid" + where +
			" ORDER BY r.execid, f.fociid LIMIT 40"
	case 3: // aggregates over the join
		return "SELECT COUNT(*), MIN(r.value), MAX(r.value), SUM(r.value) FROM results r JOIN foci f ON r.fociid = f.fociid" + where
	case 4: // single-table indexed scan with DISTINCT
		w := ""
		if rng.Intn(2) == 0 {
			w = fmt.Sprintf(" WHERE execid = %s", execid)
		}
		return "SELECT DISTINCT metricid FROM results" + w + " ORDER BY metricid"
	case 5: // ordered-index range probe with ORDER BY on the probe column
		return fmt.Sprintf(
			"SELECT execid, starttime, value FROM results WHERE starttime >= %g AND starttime <= %g ORDER BY starttime LIMIT %d",
			threshold, threshold+40, 1+rng.Intn(30))
	case 6: // descending ordered walk (duplicate keys exercise run order)
		return fmt.Sprintf("SELECT metricid, value FROM results ORDER BY metricid DESC LIMIT %d", 1+rng.Intn(20))
	default: // single-table projection with mixed filters
		return fmt.Sprintf(
			"SELECT execid, fociid, value FROM results WHERE execid = %s AND value > %g ORDER BY fociid, value LIMIT %d",
			execid, threshold, 1+rng.Intn(30))
	}
}

// assertSameResults runs one query through both executors and compares.
func assertSameResults(t *testing.T, db *minidb.Database, q string) {
	t.Helper()
	planned, perr := db.Query(q)
	naive, nerr := db.QueryNaive(q)
	if (perr == nil) != (nerr == nil) {
		t.Fatalf("error divergence for %q:\nplanned err: %v\nnaive err:   %v", q, perr, nerr)
	}
	if perr != nil {
		return
	}
	if !reflect.DeepEqual(planned.Columns, naive.Columns) {
		t.Fatalf("column divergence for %q:\nplanned %v\nnaive   %v", q, planned.Columns, naive.Columns)
	}
	if !reflect.DeepEqual(planned.Strings(), naive.Strings()) {
		t.Fatalf("row divergence for %q:\nplanned %v\nnaive   %v", q, planned.Strings(), naive.Strings())
	}
}

// TestDifferentialErrorShapes pins error parity for queries whose
// predicates cannot be evaluated: unknown columns, ambiguous references,
// and aggregates in WHERE must error (or not) identically in both
// executors — index shortcuts must never mask a per-row evaluation error.
func TestDifferentialErrorShapes(t *testing.T) {
	db := starDB(t, 1)
	for _, q := range []string{
		// Unknown column beside an indexed equality that matches nothing.
		"SELECT value FROM results WHERE nosuchcol = 1 AND execid = 'absent'",
		"SELECT value FROM results WHERE execid = '1' AND nosuchcol = 1",
		// Unknown column in a residual ON conjunct of a hash join.
		"SELECT r.value FROM results r JOIN foci f ON r.fociid = f.fociid AND nosuch = 1 WHERE r.execid = 'absent'",
		// Ambiguous unqualified reference (fociid lives in both tables).
		"SELECT r.value FROM results r JOIN foci f ON r.fociid = f.fociid WHERE fociid = 1",
		// Aggregate in a row context.
		"SELECT value FROM results WHERE COUNT(value) > 1",
		// Qualified reference to the wrong alias.
		"SELECT r.value FROM results r JOIN foci f ON r.fociid = f.fociid WHERE q.execid = '1'",
	} {
		assertSameResults(t, db, q)
	}
}

func TestDifferentialStarQueries(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db := starDB(t, seed)
			rng := rand.New(rand.NewSource(seed * 7919))
			queries := make([]string, 150)
			for i := range queries {
				queries[i] = randStarQuery(rng)
			}
			for _, q := range queries {
				assertSameResults(t, db, q)
			}

			// Mutate the store (exercising index maintenance), then replay.
			if _, err := db.Exec("DELETE FROM results WHERE fociid = 2"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec("UPDATE results SET fociid = 3 WHERE metricid = 2 AND fociid = 4"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec("INSERT INTO results VALUES ('9', 1, 1, 1, 0, 60, 4.25)"); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries[:60] {
				assertSameResults(t, db, q)
			}
		})
	}
}

// TestDifferentialWideQueries runs the HPL wide-table shapes through both
// executors: point queries, DISTINCT projections, and NULL handling.
func TestDifferentialWideQueries(t *testing.T) {
	db := minidb.NewDatabase()
	d := datagen.HPL(datagen.HPLConfig{Executions: 60, Seed: 1})
	if err := datagen.LoadWideTable(db, "executions", d); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("executions", "execid"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 80; i++ {
		id := 100 + rng.Intn(70)
		var q string
		switch i % 4 {
		case 0:
			q = fmt.Sprintf("SELECT gflops FROM executions WHERE execid = '%d'", id)
		case 1:
			q = fmt.Sprintf("SELECT execid, gflops FROM executions WHERE gflops > %g ORDER BY execid", rng.Float64()*10)
		case 2:
			q = "SELECT DISTINCT numprocesses FROM executions WHERE numprocesses IS NOT NULL ORDER BY numprocesses"
		default:
			q = fmt.Sprintf("SELECT COUNT(*), AVG(gflops) FROM executions WHERE execid != '%d'", id)
		}
		assertSameResults(t, db, q)
	}
}

// loadAggTable creates and fills table m for the aggregate differential:
// an INT column with NULLs, a FLOAT column holding NaN, -0 and 0, a TEXT
// column with numeric, empty and separator-bearing text, an INT column x
// mixing ints with numeric text (non-numeric text only in group g0, so
// SUM(x) fails or not by filter), and a group column g.
func loadAggTable(t *testing.T, db *minidb.Database, seed int64, n int) {
	t.Helper()
	if _, err := db.Exec(`CREATE TABLE m (i INT, f FLOAT, s TEXT, x INT, g TEXT)`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 1.5, 2.25, -3.75, 0.1}
	texts := []string{"a", "b", "", "1", " 2 ", "a\x00\x03b", "b\x00\x03c", "abc"}
	maybeNull := func(v minidb.Value) minidb.Value {
		if rng.Intn(8) == 0 {
			return minidb.Null()
		}
		return v
	}
	rows := make([][]minidb.Value, n)
	for r := range rows {
		g := rng.Intn(4)
		var x minidb.Value
		switch k := rng.Intn(6); {
		case g == 0 && k == 0:
			x = minidb.Text("abc")
		case k == 1:
			x = minidb.Text("2.5")
		case k == 2:
			x = minidb.Text("1e1")
		default:
			x = minidb.Int(int64(rng.Intn(9)))
		}
		rows[r] = []minidb.Value{
			maybeNull(minidb.Int(int64(rng.Intn(40) - 10))),
			maybeNull(minidb.Float(floats[rng.Intn(len(floats))])),
			maybeNull(minidb.Text(texts[rng.Intn(len(texts))])),
			maybeNull(x),
			minidb.Text(fmt.Sprintf("g%d", g)),
		}
	}
	if err := db.InsertRows("m", rows); err != nil {
		t.Fatal(err)
	}
}

// randAggQuery composes one aggregate or DISTINCT query over table m:
// plain and DISTINCT aggregates over every column kind, arguments that
// fail only once a row reaches them (an unknown column, a nested
// aggregate), several failing aggregates in one list, a plain column
// mixed in, LIMIT on all-aggregate selects, and row DISTINCT with and
// without ORDER BY.
func randAggQuery(rng *rand.Rand) string {
	conds := []string{"g = 'g1'", "g != 'g0'", "i > 5", "i IS NULL", "g = 'none'",
		"i BETWEEN 0 AND 9", "s LIKE 'a%'", "f > 1", "x IS NOT NULL"}
	where := ""
	sep := " WHERE "
	for i, n := 0, rng.Intn(3); i < n; i++ {
		where += sep + conds[rng.Intn(len(conds))]
		sep = " AND "
	}
	limit := ""
	if rng.Intn(4) == 0 {
		limit = fmt.Sprintf(" LIMIT %d", rng.Intn(3))
	}
	if rng.Intn(3) == 0 {
		shapes := []string{"f", "s, x", "x", "g, i", "*", "s AS k, g"}
		orders := []string{"", " ORDER BY s", " ORDER BY x DESC, g", " ORDER BY i", " ORDER BY g, i DESC", " ORDER BY k"}
		shape := shapes[rng.Intn(len(shapes))]
		order := orders[rng.Intn(len(orders))]
		return "SELECT DISTINCT " + shape + " FROM m" + where + order + limit
	}
	funcs := []string{"COUNT(%s)", "COUNT(DISTINCT %s)", "SUM(%s)", "SUM(DISTINCT %s)",
		"AVG(%s)", "AVG(DISTINCT %s)", "MIN(%s)", "MAX(%s)", "MIN(DISTINCT %s)"}
	args := []string{"i", "f", "s", "x", "g", "i", "f", "x", "nosuch", "MAX(i)"}
	var items []string
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			items = append(items, "COUNT(*)")
		case 1:
			items = append(items, "g")
		default:
			items = append(items, fmt.Sprintf(funcs[rng.Intn(len(funcs))], args[rng.Intn(len(args))]))
		}
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM m" + where + limit
}

// typedResult renders a result with every value's kind, so an Int 1 and
// a Float 1 (or -0 and 0) can never compare equal.
func typedResult(rs *minidb.ResultSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q\n", rs.Columns)
	for _, row := range rs.Rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%q|", v.Kind, v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDifferentialAggregates runs randomized aggregate and DISTINCT
// queries through the planned pipeline and the naive executor on both
// engines (the disk table spans sealed blocks and an unsealed tail),
// asserting identical error text or identical typed results.
func TestDifferentialAggregates(t *testing.T) {
	engines := []struct {
		name string
		open func(t *testing.T) *minidb.Database
	}{
		{"memory", func(t *testing.T) *minidb.Database { return minidb.NewDatabase() }},
		{"disk", func(t *testing.T) *minidb.Database {
			db, err := minidb.Open(minidb.Options{Dir: t.TempDir(), SealRows: 256, DisableAutoCompact: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			db := eng.open(t)
			loadAggTable(t, db, 5, 700)
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO m VALUES (4, 1.5, 'tail', '2.5', 'g2')`); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			fails := 0
			for i := 0; i < 400; i++ {
				q := randAggQuery(rng)
				planned, perr := db.Query(q)
				naive, nerr := db.QueryNaive(q)
				if fmt.Sprint(perr) != fmt.Sprint(nerr) {
					t.Fatalf("%q: planned err %v, naive err %v", q, perr, nerr)
				}
				if perr != nil {
					fails++
					continue
				}
				if p, n := typedResult(planned), typedResult(naive); p != n {
					t.Fatalf("%q diverged\nplanned:\n%s\nnaive:\n%s", q, p, n)
				}
			}
			// Both outcomes must be well represented for the run to mean
			// anything.
			if fails < 40 || fails > 360 {
				t.Errorf("%d of 400 queries failed; the generator lost its balance", fails)
			}
		})
	}
}
