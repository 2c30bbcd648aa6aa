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
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 1.5, 2.25, -3.75, 0.1, 5}
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
		"i BETWEEN 0 AND 9", "s LIKE 'a%'", "f > 1", "x IS NOT NULL",
		// NaN regressions: f is hash- and ordered-indexed and holds NaN.
		"f = 5", "f IN (5, 1.5)", "f BETWEEN 5 AND 5", "f >= 2.25"}
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
			if err := db.CreateIndex("m", "f"); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateOrderedIndex("m", "f"); err != nil {
				t.Fatal(err)
			}
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

// distinctPool holds values whose DISTINCT identities collide in the
// hash index: Int 5, Float 5, '5', '5.0' and ' 5' share a key; so do -0
// and 0, every NaN, and 2^53 and 2^53+1. Each lands in a TEXT, an INT and
// a FLOAT column, whose coercions produce different mixes.
var distinctPool = []minidb.Value{
	minidb.Int(5), minidb.Float(5), minidb.Text("5"), minidb.Text("5.0"), minidb.Text(" 5"),
	minidb.Float(math.Copysign(0, -1)), minidb.Int(0), minidb.Float(math.NaN()), minidb.Text("NaN"),
	minidb.Null(), minidb.Int(1 << 53), minidb.Int(1<<53 + 1), minidb.Text("abc"), minidb.Text("b"),
	minidb.Float(2.5), minidb.Int(7),
}

// distinctRows generates n rows of table u starting at id first: a group
// column g (g9 rare, so an equality on it is a small probe; 1e1 one row
// in ten, a pure bucket that is not exact for a probe of '10') and the
// mixed-identity columns s, i, f.
func distinctRows(rng *rand.Rand, first, n int) [][]minidb.Value {
	rows := make([][]minidb.Value, n)
	for r := range rows {
		g := fmt.Sprintf("g%d", rng.Intn(4))
		switch k := rng.Intn(200); {
		case k == 0:
			g = "g9"
		case k <= 20:
			g = "1e1" // alone in its bucket, whose key a probe for '10' shares
		}
		rows[r] = []minidb.Value{
			minidb.Int(int64(first + r)), minidb.Text(g),
			distinctPool[rng.Intn(len(distinctPool))],
			distinctPool[rng.Intn(len(distinctPool))],
			distinctPool[rng.Intn(len(distinctPool))],
		}
	}
	return rows
}

// randDistinctQuery composes one DISTINCT or COUNT(DISTINCT) query over
// u, eligible for the index path or one step away from it: the column
// may be unindexed (id), the probe may be a literal or a parameter and
// land on an exact, a mixed, an empty or a NULL bucket or fail to
// evaluate, ORDER BY may be the column either way or another column.
func randDistinctQuery(rng *rand.Rand) (string, []minidb.Value) {
	cols := []string{"s", "i", "f", "g", "s", "i", "f", "id"}
	c := cols[rng.Intn(len(cols))]
	sel := "SELECT DISTINCT " + c
	count := rng.Intn(3) == 0
	if count {
		sel = "SELECT COUNT(DISTINCT " + c + ")"
	}
	q := sel + " FROM u"
	var args []minidb.Value
	switch rng.Intn(3) {
	case 1:
		lits := []string{"5", "'5'", "'5.0'", "5.0", "-0.0", "0", "'NaN'", "NULL",
			"9007199254740993", "'abc'", "'g1'", "'g9'", "'none'", "-'x'", "'10'", "10", "'1e1'"}
		q += " WHERE " + cols[rng.Intn(len(cols))] + " = " + lits[rng.Intn(len(lits))]
	case 2:
		params := []minidb.Value{minidb.Int(5), minidb.Text("5"), minidb.Float(math.NaN()),
			minidb.Float(math.Copysign(0, -1)), minidb.Null(), minidb.Text("g1"), minidb.Text("g9"),
			minidb.Int(1<<53 + 1), minidb.Text("abc"), minidb.Text("10")}
		q += " WHERE " + cols[rng.Intn(len(cols))] + " = ?"
		args = []minidb.Value{params[rng.Intn(len(params))]}
	}
	switch rng.Intn(4) {
	case 1:
		q += " ORDER BY " + c
	case 2:
		q += " ORDER BY " + c + " DESC"
	case 3:
		if !count {
			q += " ORDER BY id"
		}
	}
	if rng.Intn(3) == 0 {
		q += fmt.Sprintf(" LIMIT %d", rng.Intn(4))
	}
	return q, args
}

// TestDifferentialIndexDistinct pins the index-distinct access path
// against the naive executor: randomized DISTINCT and COUNT(DISTINCT)
// queries over hash-indexed columns holding mixed-identity values, with
// INSERTs (incremental bucket maintenance), UPDATEs and DELETEs (bucket
// rebuilds) between rounds, on the memory engine and on the disk engine
// (sealed blocks plus a tail, then again after a reopen). Typed rows and
// error text must match byte for byte, and Explain must show the path
// taken where it is eligible and refused where the probe bucket is mixed
// or small.
func TestDifferentialIndexDistinct(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *minidb.Database {
				if !disk {
					return minidb.NewDatabase()
				}
				db, err := minidb.Open(minidb.Options{Dir: dir, SealRows: 256, DisableAutoCompact: true})
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			defer func() { db.Close() }()
			db.MustExec(`CREATE TABLE u (id INT, g TEXT, s TEXT, i INT, f FLOAT)`)
			for _, c := range []string{"g", "s", "i", "f"} {
				if err := db.CreateIndex("u", c); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(13))
			next := 0
			insert := func(n int) {
				if err := db.InsertRows("u", distinctRows(rng, next, n)); err != nil {
					t.Fatal(err)
				}
				next += n
			}
			insert(600)
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
			insert(40)

			check := func(round string) {
				t.Helper()
				for i := 0; i < 150; i++ {
					q, args := randDistinctQuery(rng)
					assertSameDistinct(t, db, round, q, args)
				}
				assertDistinctExplains(t, db, round)
			}
			check("loaded")
			for round := 0; round < 4; round++ {
				insert(25)
				lo := rng.Intn(next)
				for _, m := range []string{
					fmt.Sprintf("UPDATE u SET s = '5.0', f = 'NaN' WHERE id = %d", lo),
					fmt.Sprintf("UPDATE u SET i = NULL WHERE g = 'g%d' AND id > %d", round, lo),
					fmt.Sprintf("DELETE FROM u WHERE id BETWEEN %d AND %d", lo, lo+30),
				} {
					if _, err := db.Exec(m); err != nil {
						t.Fatal(err)
					}
				}
				insert(15)
				if round%2 == 1 {
					if err := db.Seal(); err != nil {
						t.Fatal(err)
					}
					insert(10)
				}
				check(fmt.Sprintf("round %d", round))
			}
			if disk {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db = open()
				check("reopened")
			}
		})
	}
}

// assertSameDistinct runs one prepared query through the planned path
// and the naive executor and compares typed rows and error text.
func assertSameDistinct(t *testing.T, db *minidb.Database, round, q string, args []minidb.Value) {
	t.Helper()
	var planned *minidb.ResultSet
	stmt, perr := db.Prepare(q)
	if perr == nil {
		planned, perr = stmt.Query(args...)
	}
	naive, nerr := db.QueryNaiveArgs(q, args...)
	if fmt.Sprint(perr) != fmt.Sprint(nerr) {
		t.Fatalf("%s: %q %v: planned err %v, naive err %v", round, q, args, perr, nerr)
	}
	if perr != nil {
		return
	}
	if p, n := typedResult(planned), typedResult(naive); p != n {
		t.Fatalf("%s: %q %v diverged\nplanned:\n%s\nnaive:\n%s", round, q, args, p, n)
	}
}

// assertDistinctExplains checks the access path the planner picks for
// shapes whose answer is known from the data: eligible shapes without
// WHERE and with a large exact probe take index-distinct; a probe bucket
// holding several identities, and a probe too small to pay for walking
// the DISTINCT column's buckets, keep index-eq.
func assertDistinctExplains(t *testing.T, db *minidb.Database, round string) {
	t.Helper()
	count := func(q string) int64 {
		rs, err := db.QueryNaive(q)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Rows[0][0].Int
	}
	want := map[string]string{
		"SELECT COUNT(DISTINCT s) FROM u":                    "index-distinct",
		"SELECT DISTINCT f FROM u ORDER BY f DESC LIMIT 2":   "index-distinct",
		"SELECT DISTINCT i FROM u":                           "index-distinct",
		"SELECT DISTINCT s FROM u WHERE g = 'g1' ORDER BY s": "index-distinct",
		"SELECT COUNT(DISTINCT f) FROM u WHERE g = 'g2'":     "index-distinct",
		"SELECT DISTINCT id FROM u":                          "seq-scan",
		"SELECT DISTINCT s FROM u ORDER BY id":               "seq-scan",
	}
	if count("SELECT COUNT(DISTINCT s) FROM u WHERE s IN ('5', '5.0', ' 5')") >= 2 {
		want["SELECT DISTINCT g FROM u WHERE s = '5'"] = "index-eq"
	}
	if count("SELECT COUNT(DISTINCT i) FROM u WHERE i IN (9007199254740992, 9007199254740993)") == 2 {
		want["SELECT DISTINCT g FROM u WHERE i = 9007199254740993"] = "index-eq"
	}
	if count("SELECT COUNT(*) FROM u WHERE g = '1e1'") > 0 {
		want["SELECT DISTINCT s FROM u WHERE g = '10'"] = "index-eq"
	}
	if n := count("SELECT COUNT(*) FROM u WHERE g = 'g9'"); n > 0 && 100*n < count("SELECT COUNT(s) FROM u") {
		want["SELECT DISTINCT s FROM u WHERE g = 'g9'"] = "index-eq"
	}
	if len(want) < 11 {
		t.Fatalf("%s: the data lost its mixed or small probe buckets", round)
	}
	for q, access := range want {
		stmt, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		info, err := stmt.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if info.Access != access {
			t.Errorf("%s: %q: access %s, want %s", round, q, info.Access, access)
		}
	}
}
