package minidb

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// bothExecutors runs q through the planned pipeline, the naive
// executor, and the batched stream of a prepared statement, failing
// unless all three agree (kinds and error text included); it returns the
// planned result.
func bothExecutors(t *testing.T, db *Database, q string) *ResultSet {
	t.Helper()
	planned, perr := db.Query(q)
	naive, nerr := db.QueryNaive(q)
	if fmt.Sprint(perr) != fmt.Sprint(nerr) {
		t.Fatalf("%q: planned err %v, naive err %v", q, perr, nerr)
	}
	if perr != nil {
		return nil
	}
	if resultString(planned) != resultString(naive) {
		t.Fatalf("%q diverged\nplanned:\n%s\nnaive:\n%s", q, resultString(planned), resultString(naive))
	}
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.QueryStream()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	batched := &ResultSet{Columns: rows.Columns}
	b := NewBatch()
	defer b.Release()
	for rows.NextBatch(b, 3) {
		for r := 0; r < b.Rows(); r++ {
			row := make([]Value, b.Cols())
			for c := range row {
				row[c] = b.At(c, r)
			}
			batched.Rows = append(batched.Rows, row)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if resultString(batched) != resultString(planned) {
		t.Fatalf("%q: NextBatch diverged\nbatched:\n%s\nplanned:\n%s", q, resultString(batched), resultString(planned))
	}
	return planned
}

// TestDistinctKeyLengthPrefixed is the regression for a DISTINCT key
// that joined values with a kind byte and a 0 separator: these two rows
// rendered the same key and collapsed into one.
func TestDistinctKeyLengthPrefixed(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE t (a TEXT, b TEXT)`)
	if err := db.InsertRows("t", [][]Value{
		{Text("a\x00\x03b"), Text("c")},
		{Text("a"), Text("b\x00\x03c")},
	}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT DISTINCT a, b FROM t`,
		`SELECT DISTINCT a, b FROM t ORDER BY a`,
	} {
		if rs := bothExecutors(t, db, q); len(rs.Rows) != 2 {
			t.Errorf("%q returned %d rows, want 2", q, len(rs.Rows))
		}
	}
}

// TestDistinctValueIdentity pins which values DISTINCT treats as one:
// every NaN is one value, -0 and 0 are two, and Int 1, Float 1 and
// Text "1" are three. The rows are stored uncoerced (a column of mixed
// kinds), which INSERT cannot produce.
func TestDistinctValueIdentity(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE k (id INT, v FLOAT)`)
	tbl, err := db.table("k")
	if err != nil {
		t.Fatal(err)
	}
	vals := []Value{
		Int(1), Float(1), Text("1"), Float(math.NaN()),
		Float(math.Float64frombits(0x7ff8000000000001)), Float(0),
		Float(math.Copysign(0, -1)), Null(), Int(1), Float(0), Text("1"), Null(),
	}
	for i, v := range vals {
		tbl.Rows = append(tbl.Rows, Row{Int(int64(i)), v})
	}

	want := map[string]int{
		`SELECT DISTINCT v FROM k`:                   7,
		`SELECT DISTINCT v FROM k ORDER BY id DESC`:  7,
		`SELECT DISTINCT v, id FROM k WHERE id >= 8`: 4,
	}
	for q, n := range want {
		if rs := bothExecutors(t, db, q); len(rs.Rows) != n {
			t.Errorf("%q returned %d rows, want %d:\n%s", q, len(rs.Rows), n, resultString(rs))
		}
	}
	rs := bothExecutors(t, db, `SELECT COUNT(DISTINCT v), COUNT(v), MIN(v), MAX(v) FROM k`)
	if got := rs.Rows[0][0]; got != Int(6) {
		t.Errorf("COUNT(DISTINCT v) = %v, want 6", got)
	}
	if got := rs.Rows[0][1]; got != Int(10) {
		t.Errorf("COUNT(v) = %v, want 10", got)
	}
	rs = bothExecutors(t, db, `SELECT SUM(DISTINCT v), AVG(DISTINCT v) FROM k WHERE id <= 2`)
	if got := rs.Rows[0][0]; got != Float(3) {
		t.Errorf("SUM(DISTINCT v) over 1, 1.0, '1' = %v, want Float 3", got)
	}
	rs = bothExecutors(t, db, `SELECT SUM(DISTINCT v) FROM k WHERE id = 0 OR id = 8`)
	if got := rs.Rows[0][0]; got != Int(1) {
		t.Errorf("SUM(DISTINCT v) over 1, 1 = %v, want Int 1", got)
	}
}

// TestStreamingAggregateSemantics pins the oracle behaviours the
// accumulators must keep: NULL skipping, SUM's result kind, the first
// failing aggregate in select-list order reporting, an argument that
// errors only once a row reaches it, and LIMIT ignored.
func TestStreamingAggregateSemantics(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE m (i INT, x INT, s TEXT)`)
	if err := db.InsertRows("m", [][]Value{
		{Int(1), Int(2), Text("a")},
		{Null(), Text("2.5"), Text("b")},
		{Int(3), Null(), Null()},
		{Int(-2), Text("zz"), Text("c")},
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ q, want string }{
		{`SELECT SUM(i), AVG(i), COUNT(i), COUNT(*) FROM m`, "1:2|2:0.6666666666666666|1:3|1:4|"},
		{`SELECT SUM(x) FROM m WHERE i = 1 OR i IS NULL`, "2:4.5|"},
		{`SELECT MIN(x), MAX(x), MIN(s) FROM m`, "1:2|3:zz|3:a|"},
		{`SELECT COUNT(*), SUM(i) FROM m LIMIT 0`, "1:4|1:2|"},
		{`SELECT COUNT(nosuch), SUM(MAX(i)) FROM m WHERE i > 10`, "1:0|0:NULL|"},
		{`SELECT SUM(i) FROM m WHERE i > 10`, "0:NULL|"},
	}
	for _, c := range cases {
		rs := bothExecutors(t, db, c.q)
		var b strings.Builder
		for _, v := range rs.Rows[0] {
			fmt.Fprintf(&b, "%d:%v|", v.Kind, v)
		}
		if b.String() != c.want {
			t.Errorf("%q = %s, want %s", c.q, b.String(), c.want)
		}
	}
	for _, c := range []struct{ q, want string }{
		{`SELECT COUNT(*), SUM(x), AVG(s) FROM m`, `SUM over non-numeric value "zz"`},
		{`SELECT COUNT(*), AVG(s), SUM(x) FROM m`, `AVG over non-numeric value "a"`},
		{`SELECT SUM(x), SUM(nosuch) FROM m`, `SUM over non-numeric value "zz"`},
		{`SELECT MIN(MAX(i)), SUM(x) FROM m`, `aggregate MAX in row context`},
		{`SELECT COUNT(nosuch) FROM m`, `unknown column "nosuch"`},
		{`SELECT SUM(x), i FROM m`, `SUM over non-numeric value "zz"`},
		{`SELECT COUNT(*), i FROM m`, `mixes aggregates and plain columns`},
	} {
		bothExecutors(t, db, c.q)
		if _, err := db.Query(c.q); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err %v, want it to contain %q", c.q, err, c.want)
		}
	}
}

// aggAllocsDB builds a table of n rows with five distinct g values and
// distinct d values (d = i mod distinct).
func aggAllocsDB(t *testing.T, n, distinct int) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustExec(`CREATE TABLE m (i INT, f FLOAT, g TEXT, d TEXT)`)
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Float(float64(i) / 4), Text(fmt.Sprintf("g%d", i%5)),
			Text(fmt.Sprintf("d%04d", i%distinct))}
	}
	if err := db.InsertRows("m", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func queryAllocs(t *testing.T, db *Database, q string) float64 {
	t.Helper()
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := stmt.Query(); err != nil {
			t.Fatal(err)
		}
	}
	run() // plan once outside the measurement
	return testing.AllocsPerRun(5, run)
}

// TestAggregateAllocsFlat pins that an all-aggregate select allocates
// nothing per row scanned: 10^3 and 10^5 rows cost the same.
func TestAggregateAllocsFlat(t *testing.T) {
	const q = `SELECT COUNT(*), COUNT(DISTINCT g), SUM(i), AVG(f), MIN(g), MAX(f) FROM m WHERE i >= 0`
	small := queryAllocs(t, aggAllocsDB(t, 1000, 10), q)
	large := queryAllocs(t, aggAllocsDB(t, 100000, 10), q)
	if small != large {
		t.Errorf("aggregate allocs grow with rows: %.0f at 10^3 rows, %.0f at 10^5", small, large)
	}
}

// TestDistinctOrderAllocsTrackDistinct pins that SELECT DISTINCT ...
// ORDER BY allocates per distinct row kept, not per row scanned.
func TestDistinctOrderAllocsTrackDistinct(t *testing.T) {
	const q = `SELECT DISTINCT d FROM m ORDER BY d`
	small := queryAllocs(t, aggAllocsDB(t, 1000, 10), q)
	large := queryAllocs(t, aggAllocsDB(t, 100000, 10), q)
	wide := queryAllocs(t, aggAllocsDB(t, 100000, 1000), q)
	if small != large {
		t.Errorf("DISTINCT allocs grow with rows scanned: %.0f at 10^3 rows, %.0f at 10^5", small, large)
	}
	if wide < large+1000 {
		t.Errorf("DISTINCT over 1000 values allocates %.0f, want at least one per value over the %.0f for 10", wide, large)
	}
}

// TestNaNOrdersAboveNumbers is the regression for NaN comparing equal to
// every number: the naive executor matched a NaN row against a = 5 while
// the hash index filed NaN under its own key and the ordered index sorted
// it arbitrarily, so indexed plans and the oracle disagreed. NaN now
// equals only NaN and sorts above every other number.
func TestNaNOrdersAboveNumbers(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE t (a FLOAT)`)
	for i := 0; i < 8; i++ {
		db.MustExec(`INSERT INTO t VALUES (5)`)
	}
	db.MustExec(`INSERT INTO t VALUES ('NaN')`)
	db.MustExec(`INSERT INTO t VALUES (7)`)
	if err := db.CreateIndex("t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateOrderedIndex("t", "a"); err != nil {
		t.Fatal(err)
	}
	nan := Float(math.NaN())
	for q, want := range map[string][]Value{
		`SELECT COUNT(*), MIN(a), MAX(a) FROM t WHERE a = 5`: {Int(8), Float(5), Float(5)},
		`SELECT COUNT(*) FROM t WHERE a IN (5, 6)`:           {Int(8)},
		`SELECT COUNT(*) FROM t WHERE a BETWEEN 5 AND 5`:     {Int(8)},
		`SELECT COUNT(*) FROM t WHERE a > 6`:                 {Int(2)},
		`SELECT COUNT(*) FROM t WHERE a = 'NaN'`:             {Int(1)},
		`SELECT COUNT(*), MAX(a) FROM t WHERE a != 5`:        {Int(2), nan},
		`SELECT a FROM t ORDER BY a DESC LIMIT 1`:            {nan},
		`SELECT DISTINCT a FROM t WHERE a >= 5 ORDER BY a`:   {Float(5), Float(7), nan},
		`SELECT COUNT(DISTINCT a), MIN(a), MAX(a) FROM t`:    {Int(3), Float(5), nan},
		`SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 2`:   {nan, Float(7)},
		`SELECT COUNT(*) FROM t WHERE a NOT BETWEEN 5 AND 7`: {Int(1)},
	} {
		rs := bothExecutors(t, db, q)
		var got []Value
		for _, row := range rs.Rows {
			got = append(got, row...)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q = %v, want %v", q, got, want)
		}
	}
}
