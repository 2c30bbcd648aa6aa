package minidb

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// negZero returns -0.0 without tripping the compiler's constant folding.
func negZero() float64 { return math.Copysign(0, -1) }

func TestPrepareQueryParams(t *testing.T) {
	db := execDB(t)
	st, err := db.Prepare(`SELECT runid FROM executions WHERE numprocesses = ? ORDER BY runid`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := st.Query(Int(2))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"100"}, {"104"}}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("got %v want %v", rs.Strings(), want)
	}
	// Rebinding the same statement with a different value.
	rs, err = st.Query(Int(16))
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"103"}}; !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("got %v want %v", rs.Strings(), want)
	}
}

func TestPrepareCachesByText(t *testing.T) {
	db := execDB(t)
	a, err := db.Prepare(`SELECT runid FROM executions WHERE runid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Prepare(`SELECT runid FROM executions WHERE runid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical SQL did not hit the statement cache")
	}
}

func TestPrepareBindErrors(t *testing.T) {
	db := execDB(t)
	st, err := db.Prepare(`SELECT runid FROM executions WHERE runid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); err == nil {
		t.Error("want arity error for missing binding")
	}
	if _, err := st.Query(Int(1), Int(2)); err == nil {
		t.Error("want arity error for extra binding")
	}
	if _, err := db.Query(`SELECT runid FROM executions WHERE runid = ?`); err == nil {
		t.Error("Query should reject parameterized SQL")
	}
	if _, err := db.Exec(`DELETE FROM executions WHERE runid = ?`); err == nil {
		t.Error("Exec should reject parameterized SQL")
	}
}

func TestPreparedExec(t *testing.T) {
	db := execDB(t)
	ins, err := db.Prepare(`INSERT INTO executions VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ins.Exec(Int(200), Int(64), Text("2004-04-01"), Float(20.5)); err != nil || n != 1 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	del, err := db.Prepare(`DELETE FROM executions WHERE runid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := del.Exec(Int(200)); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
}

func TestQueryStream(t *testing.T) {
	db := execDB(t)
	st, err := db.Prepare(`SELECT runid, gflops FROM executions WHERE numprocesses < ?`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.QueryStream(Int(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		got = append(got, rows.Row()[0].String())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"100", "101", "104"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	// After exhaustion the read lock is released: writes must not block.
	if _, err := db.Exec(`DELETE FROM executions WHERE runid = 100`); err != nil {
		t.Fatal(err)
	}
}

func TestQueryStreamEarlyClose(t *testing.T) {
	db := execDB(t)
	st, err := db.Prepare(`SELECT runid FROM executions`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.QueryStream()
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("want at least one row")
	}
	rows.Close()
	rows.Close() // idempotent
	if _, err := db.Exec(`DELETE FROM executions WHERE runid = 104`); err != nil {
		t.Fatal(err)
	}
}

func TestCreateIndexSQLAndProbe(t *testing.T) {
	db := execDB(t)
	if _, err := db.Exec(`CREATE INDEX idx_runid ON executions (runid)`); err != nil {
		t.Fatal(err)
	}
	cols, err := db.Indexes("executions")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, []string{"runid"}) {
		t.Errorf("indexes = %v", cols)
	}
	rs, err := db.Query(`SELECT gflops FROM executions WHERE runid = 102`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"5.1"}}; !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("got %v want %v", rs.Strings(), want)
	}
	// A probe for an absent key returns no rows (not a scan fallback).
	rs, err = db.Query(`SELECT gflops FROM executions WHERE runid = 999`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("got %v want empty", rs.Strings())
	}
	if err := db.CreateIndex("executions", "nosuch"); err == nil {
		t.Error("want error indexing a missing column")
	}
}

func TestIndexMaintenance(t *testing.T) {
	db := execDB(t)
	if err := db.CreateIndex("executions", "numprocesses"); err != nil {
		t.Fatal(err)
	}
	query := func() [][]string {
		t.Helper()
		rs, err := db.Query(`SELECT runid FROM executions WHERE numprocesses = 2 ORDER BY runid`)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Strings()
	}
	if want := [][]string{{"100"}, {"104"}}; !reflect.DeepEqual(query(), want) {
		t.Fatalf("baseline: got %v", query())
	}
	// Insert is reflected.
	db.MustExec(`INSERT INTO executions VALUES (105, 2, '2004-03-18', 1.7)`)
	if want := [][]string{{"100"}, {"104"}, {"105"}}; !reflect.DeepEqual(query(), want) {
		t.Errorf("after insert: got %v", query())
	}
	// Update moves a row between buckets.
	db.MustExec(`UPDATE executions SET numprocesses = 4 WHERE runid = 104`)
	if want := [][]string{{"100"}, {"105"}}; !reflect.DeepEqual(query(), want) {
		t.Errorf("after update: got %v", query())
	}
	// Delete drops rows from the index.
	db.MustExec(`DELETE FROM executions WHERE runid = 100`)
	if want := [][]string{{"105"}}; !reflect.DeepEqual(query(), want) {
		t.Errorf("after delete: got %v", query())
	}
}

func TestDropTableInvalidatesStmtPlans(t *testing.T) {
	db := execDB(t)
	st, err := db.Prepare(`SELECT runid FROM executions WHERE runid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(Int(100)); err != nil { // populate the plan cache
		t.Fatal(err)
	}
	if _, err := db.Exec(`DROP TABLE executions`); err != nil {
		t.Fatal(err)
	}
	// The cached plan is released eagerly (not pinned until next use);
	// re-executing replans and reports the missing table.
	st.planMu.Lock()
	stale := st.plan != nil
	st.planMu.Unlock()
	if stale {
		t.Error("DROP TABLE left a cached plan pinning the dropped table")
	}
	if _, err := st.Query(Int(100)); err == nil {
		t.Error("want error querying a dropped table")
	}
	// Recreating the table (new schema generation) replans cleanly.
	db.MustExec(`CREATE TABLE executions (runid INT, numprocesses INT, rundate TEXT, gflops FLOAT)`)
	db.MustExec(`INSERT INTO executions VALUES (100, 2, '2004-03-15', 1.5)`)
	rs, err := st.Query(Int(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("after recreate: got %v", rs.Strings())
	}
}

func TestDeleteErrorKeepsTableConsistent(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE t (a INT, s TEXT)`)
	db.MustExec(`INSERT INTO t VALUES (9, 'del'), (5, 'keep'), (0, 'x'), (7, 'tail')`)
	db.MustExec(`CREATE INDEX t_a ON t (a)`)
	// Row 1 deletes, row 2 is kept (compacted into slot 0), row 3 errors
	// mid-scan on the unknown column — the table must not end up with
	// duplicated rows, and indexes must match the surviving rows.
	_, err := db.Exec(`DELETE FROM t WHERE s = 'del' OR (a < 2 AND badcol = 1)`)
	if err == nil {
		t.Fatal("want eval error from unknown column")
	}
	rs, qerr := db.Query(`SELECT a, s FROM t`)
	if qerr != nil {
		t.Fatal(qerr)
	}
	want := [][]string{{"5", "keep"}, {"0", "x"}, {"7", "tail"}}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("after failed DELETE: got %v want %v", rs.Strings(), want)
	}
	// Indexed probe agrees with the surviving rows.
	rs, qerr = db.Query(`SELECT s FROM t WHERE a = 5`)
	if qerr != nil {
		t.Fatal(qerr)
	}
	if wantP := [][]string{{"keep"}}; !reflect.DeepEqual(rs.Strings(), wantP) {
		t.Errorf("indexed probe after failed DELETE: got %v want %v", rs.Strings(), wantP)
	}
}

func TestIndexKeyNormalization(t *testing.T) {
	// Numeric equality across kinds shares one key; distinct text does not.
	cases := []struct {
		a, b Value
		same bool
	}{
		{Int(5), Float(5), true},
		{Int(5), Text("5"), true},
		{Float(5), Text("5.0"), true},
		{Float(0), Float(negZero()), true},
		{Text("abc"), Text("abc"), true},
		{Text("abc"), Text("abd"), false},
		{Int(5), Int(6), false},
	}
	for _, c := range cases {
		ka, oka := indexKey(c.a)
		kb, okb := indexKey(c.b)
		if !oka || !okb {
			t.Fatalf("indexKey(%v/%v) not ok", c.a, c.b)
		}
		if (ka == kb) != c.same {
			t.Errorf("indexKey(%v)=%q indexKey(%v)=%q, same=%v want %v", c.a, ka, c.b, kb, ka == kb, c.same)
		}
	}
	if _, ok := indexKey(Null()); ok {
		t.Error("NULL must not be indexed")
	}
}

func TestHashJoinMatchesNaive(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE results (execid TEXT, fociid INT, value FLOAT)`)
	db.MustExec(`CREATE TABLE foci (fociid INT, path TEXT)`)
	db.MustExec(`INSERT INTO foci VALUES (1, '/a'), (2, '/b'), (3, '/c')`)
	db.MustExec(`INSERT INTO results VALUES ('1', 1, 0.5), ('1', 2, 1.5), ('2', 1, 2.5), ('2', 3, 3.5), ('1', NULL, 9.9)`)
	db.MustExec(`CREATE INDEX r_exec ON results (execid)`)
	queries := []string{
		`SELECT f.path, r.value FROM results r JOIN foci f ON r.fociid = f.fociid WHERE r.execid = '1'`,
		`SELECT f.path, r.value FROM results r JOIN foci f ON r.fociid = f.fociid`,
		`SELECT f.path, r.value FROM results r JOIN foci f ON r.fociid >= f.fociid WHERE r.value < 3`,
		`SELECT COUNT(*) FROM results r JOIN foci f ON r.fociid = f.fociid WHERE f.path != '/b'`,
	}
	for _, q := range queries {
		planned, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		naive, err := db.QueryNaive(q)
		if err != nil {
			t.Fatalf("%s: naive: %v", q, err)
		}
		if !reflect.DeepEqual(planned.Strings(), naive.Strings()) {
			t.Errorf("%s:\nplanned %v\nnaive   %v", q, planned.Strings(), naive.Strings())
		}
	}
}

func TestStreamDistinctAndLimit(t *testing.T) {
	db := execDB(t)
	st, err := db.Prepare(`SELECT DISTINCT rundate FROM executions LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.QueryStream()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		got = append(got, rows.Row()[0].String())
	}
	if want := []string{"2004-03-15", "2004-03-16"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestPreparedInsertSignedParams(t *testing.T) {
	db := execDB(t)
	ins, err := db.Prepare(`INSERT INTO executions VALUES (?, -?, ?, +?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 4 {
		t.Fatalf("NumParams = %d, want 4", ins.NumParams())
	}
	if n, err := ins.Exec(Int(300), Int(8), Text("2004-05-01"), Float(3.25)); err != nil || n != 1 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	rs, err := db.Query(`SELECT numprocesses, gflops FROM executions WHERE runid = 300`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"-8", "3.25"}}; !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("got %v want %v", rs.Strings(), want)
	}
	// Negating a bound negative flips the sign back; NULL stays NULL.
	if n, err := ins.Exec(Int(301), Int(-4), Text("2004-05-02"), Null()); err != nil || n != 1 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	rs, err = db.Query(`SELECT numprocesses, gflops FROM executions WHERE runid = 301`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"4", "NULL"}}; !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("got %v want %v", rs.Strings(), want)
	}
	// Binding text under a unary minus is an execution-time error.
	if _, err := ins.Exec(Int(302), Text("oops"), Text("2004-05-03"), Float(1)); err == nil {
		t.Error("want error negating a text value")
	}
	// Signed parameters also bind in WHERE clauses.
	sel, err := db.Prepare(`SELECT runid FROM executions WHERE numprocesses = -?`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err = sel.Query(Int(8))
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"300"}}; !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("got %v want %v", rs.Strings(), want)
	}
}

// TestPreparedInsertMaintainsIndexes pins the contract PublishResults
// relies on: inserts through the prepared-statement path update hash
// indexes incrementally and reach ordered indexes on their next probe,
// exactly like the SQL-text and InsertRow paths.
func TestPreparedInsertMaintainsIndexes(t *testing.T) {
	db := execDB(t)
	if err := db.CreateIndex("executions", "numprocesses"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateOrderedIndex("executions", "gflops"); err != nil {
		t.Fatal(err)
	}
	// Warm the ordered index so the next probe must merge the insert in.
	if _, err := db.Query(`SELECT runid FROM executions WHERE gflops > 100`); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO executions (runid, numprocesses, gflops) VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(Int(400), Int(2), Float(123.5)); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT runid FROM executions WHERE numprocesses = 2 ORDER BY runid`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"100"}, {"104"}, {"400"}}; !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("hash-index probe after prepared insert: got %v want %v", rs.Strings(), want)
	}
	rs, err = db.Query(`SELECT runid FROM executions WHERE gflops > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"400"}}; !reflect.DeepEqual(rs.Strings(), want) {
		t.Errorf("ordered-index range after prepared insert: got %v want %v", rs.Strings(), want)
	}
}

func TestStmtCacheEpochEviction(t *testing.T) {
	db := execDB(t)
	for i := 0; i < stmtCacheCap+8; i++ {
		sql := fmt.Sprintf(`SELECT runid FROM executions WHERE runid = %d`, i)
		if _, err := db.Prepare(sql); err != nil {
			t.Fatal(err)
		}
	}
	// The cache stayed bounded and statements still work.
	st, err := db.Prepare(`SELECT COUNT(*) FROM executions`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); err != nil {
		t.Fatal(err)
	}
}
