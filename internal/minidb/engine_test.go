package minidb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pperfgrid/internal/minidb/segment"
)

// Disk-engine options tuned for tests: tiny seal threshold so small
// tables exercise the block path, no background compactor so seals and
// checkpoints happen exactly where the test says.
func testDiskOpts(dir string) Options {
	return Options{
		Dir:                dir,
		SealRows:           vecBlockSize,
		DisableAutoCompact: true,
	}
}

func openDisk(t *testing.T, opts Options) *Database {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// dump renders every table's full contents (insertion order) plus schema
// as one string, the byte-identical comparison key for differential
// tests.
func dump(t *testing.T, db *Database) string {
	t.Helper()
	var b strings.Builder
	for _, name := range db.TableNames() {
		tbl, err := db.table(name)
		if err != nil {
			t.Fatalf("table %s: %v", name, err)
		}
		fmt.Fprintf(&b, "table %s cols=%v\n", name, tbl.Columns)
		rs, err := db.Query("SELECT * FROM " + name)
		if err != nil {
			t.Fatalf("dump %s: %v", name, err)
		}
		for _, row := range rs.Rows {
			for _, v := range row {
				fmt.Fprintf(&b, "%d:%v|", v.Kind, v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func seedRuns(t *testing.T, db *Database, n int) {
	t.Helper()
	db.MustExec(`CREATE TABLE runs (id INT, app TEXT, nprocs INT, gflops FLOAT)`)
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		app := Text(fmt.Sprintf("app-%d", i%7))
		var gf Value
		if i%13 == 0 {
			gf = Null()
		} else {
			gf = Float(float64(i) * 1.5)
		}
		rows = append(rows, []Value{Int(int64(i)), app, Int(int64(i % 64)), gf})
	}
	if err := db.InsertRows("runs", rows); err != nil {
		t.Fatalf("seed: %v", err)
	}
}

func TestDiskOpenCloseReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	seedRuns(t, db, 100)
	want := dump(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2 := openDisk(t, testDiskOpts(dir))
	if got := dump(t, db2); got != want {
		t.Fatalf("reopen mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if db2.Engine().Kind() != "disk" {
		t.Fatalf("engine kind = %q", db2.Engine().Kind())
	}
}

func TestDiskSealCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	seedRuns(t, db, 1000) // 3 full blocks + 232-row tail
	if err := db.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	st := db.EngineStats()
	if st.SealedRows != 768 || st.TailRows != 232 {
		t.Fatalf("sealed=%d tail=%d, want 768/232", st.SealedRows, st.TailRows)
	}
	want := dump(t, db)

	// Reopen without a checkpoint: replay must rebuild blocks from 'I'+'S'.
	db.Close()
	db = openDisk(t, testDiskOpts(dir))
	if got := dump(t, db); got != want {
		t.Fatalf("post-seal reopen mismatch")
	}
	st = db.EngineStats()
	if st.SealedRows != 768 {
		t.Fatalf("replayed sealed=%d, want 768", st.SealedRows)
	}

	// Checkpoint, then reopen from the checkpointed log.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	db.Close()
	db = openDisk(t, testDiskOpts(dir))
	if got := dump(t, db); got != want {
		t.Fatalf("post-checkpoint reopen mismatch")
	}
}

// TestDiskOrderedMergeReadError fails the block read an ordered index's
// append merge needs (the appended rows were sealed before the probe):
// the probe must return the error and leave the index exactly as it
// was, and the next probe, with the block readable again, must merge
// and answer like the naive executor.
func TestDiskOrderedMergeReadError(t *testing.T) {
	opts := testDiskOpts(t.TempDir())
	opts.PageCacheBytes = -1 // every block read goes to the file
	db := openDisk(t, opts)
	seedRuns(t, db, 300)
	if err := db.CreateOrderedIndex("runs", "gflops"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, gflops FROM runs WHERE gflops >= 100 ORDER BY id"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	more := make([][]Value, 300)
	for i := range more {
		more[i] = []Value{Int(int64(300 + i)), Text("late"), Int(1), Float(float64(i % 250))}
	}
	if err := db.InsertRows("runs", more); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	tbl := db.tables["runs"]
	ox := tbl.ordered["gflops"]
	ents, nulls, built := ox.ents, ox.nulls, ox.built
	blk := &tbl.blocks[1] // rows 256..511: old and appended
	blk.file.Blocks[blk.idx].CRC ^= 1
	if _, err := db.Query(q); err == nil {
		t.Fatal("probe over an unreadable block did not fail")
	}
	if &ox.ents[0] != &ents[0] || len(ox.ents) != len(ents) || len(ox.nulls) != len(nulls) || ox.built != built || ox.merges != 0 {
		t.Fatalf("failed merge changed the index: %d entries, %d nulls, built %d (was %d, %d, %d)",
			len(ox.ents), len(ox.nulls), ox.built, len(ents), len(nulls), built)
	}
	blk.file.Blocks[blk.idx].CRC ^= 1
	got, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if resultString(got) != resultString(want) {
		t.Fatalf("after the retried merge:\n%s\nwant:\n%s", resultString(got), resultString(want))
	}
	if ox.built != 600 || ox.builds != 1 || ox.merges != 1 {
		t.Fatalf("built %d after %d builds and %d merges, want 600, 1, 1", ox.built, ox.builds, ox.merges)
	}
}

func TestDiskMutationsAfterSeal(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	mem := NewDatabase()
	seedRuns(t, db, 600)
	seedRuns(t, mem, 600)
	if err := db.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}

	stmts := []string{
		`UPDATE runs SET gflops = 0.0 WHERE id < 10`,
		`DELETE FROM runs WHERE id BETWEEN 100 AND 150`,
		`INSERT INTO runs (id, app, nprocs, gflops) VALUES (9001, 'late', 8, 1.25)`,
		`UPDATE runs SET app = 'bulk' WHERE nprocs >= 60`,
	}
	for _, s := range stmts {
		nd, err := db.Exec(s)
		if err != nil {
			t.Fatalf("disk %q: %v", s, err)
		}
		nm, err := mem.Exec(s)
		if err != nil {
			t.Fatalf("mem %q: %v", s, err)
		}
		if nd != nm {
			t.Fatalf("%q: disk affected %d, mem %d", s, nd, nm)
		}
	}
	if dump(t, db) != dump(t, mem) {
		t.Fatalf("disk/memory diverged after post-seal mutations")
	}

	// Everything must survive a restart, including the materialized rewrite.
	want := dump(t, mem)
	db.Close()
	db = openDisk(t, testDiskOpts(dir))
	if got := dump(t, db); got != want {
		t.Fatalf("post-restart mismatch after mutations")
	}
}

func TestDiskSealAfterMaterializeReplay(t *testing.T) {
	// Regression shape: seal, materialize (UPDATE), then seal again. Replay
	// must see an 'R' between the two 'S' records even when the UPDATE
	// changed nothing, or the second seal consumes rows the first already
	// claimed.
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	seedRuns(t, db, 512)
	if err := db.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if _, err := db.Exec(`UPDATE runs SET app = 'x' WHERE id = -1`); err != nil {
		t.Fatalf("no-op update: %v", err)
	}
	if err := db.Seal(); err != nil {
		t.Fatalf("re-seal: %v", err)
	}
	want := dump(t, db)
	db.Close()
	db = openDisk(t, testDiskOpts(dir))
	if got := dump(t, db); got != want {
		t.Fatalf("replay mismatch after seal/materialize/seal")
	}
}

// TestDiskDifferential runs a randomized statement interleaving against a
// disk database and the in-memory oracle, asserting byte-identical
// results throughout — including across a restart mid-interleaving.
func TestDiskDifferential(t *testing.T) {
	dir := t.TempDir()
	opts := testDiskOpts(dir)
	db := openDisk(t, opts)
	mem := NewDatabase()

	rng := rand.New(rand.NewSource(42))
	exec := func(sql string) {
		t.Helper()
		nd, errD := db.Exec(sql)
		nm, errM := mem.Exec(sql)
		if (errD == nil) != (errM == nil) {
			t.Fatalf("%q: disk err=%v, mem err=%v", sql, errD, errM)
		}
		if nd != nm {
			t.Fatalf("%q: disk affected %d, mem %d", sql, nd, nm)
		}
	}

	exec(`CREATE TABLE m (id INT, grp TEXT, val FLOAT)`)
	exec(`CREATE TABLE dims (grp TEXT, descr TEXT)`)
	for i := 0; i < 5; i++ {
		exec(fmt.Sprintf(`INSERT INTO dims (grp, descr) VALUES ('g%d', 'group %d')`, i, i))
	}
	if err := db.CreateIndex("m", "grp"); err != nil {
		t.Fatalf("index: %v", err)
	}
	if err := mem.CreateIndex("m", "grp"); err != nil {
		t.Fatalf("index: %v", err)
	}
	if err := db.CreateOrderedIndex("m", "id"); err != nil {
		t.Fatalf("oindex: %v", err)
	}
	if err := mem.CreateOrderedIndex("m", "id"); err != nil {
		t.Fatalf("oindex: %v", err)
	}

	queries := []string{
		`SELECT * FROM m`,
		`SELECT id, val FROM m WHERE id BETWEEN 50 AND 300`,
		`SELECT * FROM m WHERE grp = 'g2'`,
		`SELECT COUNT(*), AVG(val), MIN(id), MAX(id) FROM m`,
		`SELECT id FROM m WHERE val IS NULL`,
		`SELECT * FROM m ORDER BY id DESC LIMIT 17`,
		`SELECT m.id, dims.descr FROM m JOIN dims ON m.grp = dims.grp WHERE m.id < 40`,
		`SELECT * FROM m WHERE id NOT BETWEEN 10 AND 900`,
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range queries {
			rd, errD := db.Query(q)
			rm, errM := mem.Query(q)
			if errD != nil || errM != nil {
				t.Fatalf("%s %q: disk err=%v mem err=%v", stage, q, errD, errM)
			}
			if resultString(rd) != resultString(rm) {
				t.Fatalf("%s %q: results diverged\ndisk:\n%s\nmem:\n%s",
					stage, q, resultString(rd), resultString(rm))
			}
		}
		if dump(t, db) != dump(t, mem) {
			t.Fatalf("%s: table dumps diverged", stage)
		}
	}

	next := 0
	for round := 0; round < 12; round++ {
		for i := 0; i < 120; i++ {
			switch rng.Intn(10) {
			case 0:
				exec(fmt.Sprintf(`DELETE FROM m WHERE id = %d`, rng.Intn(next+1)))
			case 1:
				exec(fmt.Sprintf(`UPDATE m SET val = %d.5 WHERE id = %d`,
					rng.Intn(100), rng.Intn(next+1)))
			case 2:
				exec(fmt.Sprintf(`UPDATE m SET grp = 'g%d' WHERE id BETWEEN %d AND %d`,
					rng.Intn(5), rng.Intn(next+1), rng.Intn(next+1)))
			default:
				val := "NULL"
				if rng.Intn(4) != 0 {
					val = fmt.Sprintf("%d.25", rng.Intn(1000))
				}
				exec(fmt.Sprintf(`INSERT INTO m (id, grp, val) VALUES (%d, 'g%d', %s)`,
					next, rng.Intn(5), val))
				next++
			}
		}
		switch round % 3 {
		case 0:
			if err := db.Seal(); err != nil {
				t.Fatalf("seal: %v", err)
			}
		case 1:
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		check(fmt.Sprintf("round %d", round))

		if round == 5 {
			// Restart mid-interleaving: the oracle keeps running in memory;
			// the disk side must come back byte-identical.
			if err := db.Close(); err != nil {
				t.Fatalf("mid close: %v", err)
			}
			db = openDisk(t, opts)
			check("post-restart")
		}
	}
}

func resultString(rs *ResultSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", rs.Columns)
	for _, row := range rs.Rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%v|", v.Kind, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDiskTornWAL appends a committed workload, then truncates the WAL at
// every byte boundary of its tail region. Each truncation must recover to
// exactly the state reachable by replaying the surviving record prefix.
func TestDiskTornWAL(t *testing.T) {
	master := t.TempDir()
	db := openDisk(t, testDiskOpts(master))
	db.MustExec(`CREATE TABLE kv (k INT, v TEXT)`)
	for i := 0; i < 40; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO kv (k, v) VALUES (%d, 'v%d')`, i, i))
	}
	db.Close()

	walFiles, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil || len(walFiles) != 1 {
		t.Fatalf("wal files: %v %v", walFiles, err)
	}
	walBytes, err := os.ReadFile(walFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	walName := filepath.Base(walFiles[0])
	current, err := os.ReadFile(filepath.Join(master, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}

	// Reference states: replay the record prefix semantically for each
	// possible surviving record count.
	prefixDump := func(nRecords int) string {
		ref := NewDatabase()
		recs, _, err := readWALRecords(walBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nRecords && i < len(recs); i++ {
			if err := applyToMemory(ref, recs[i]); err != nil {
				t.Fatalf("oracle replay rec %d: %v", i, err)
			}
		}
		return dump(t, ref)
	}

	// Truncate at a spread of byte offsets, including every boundary near
	// the tail (torn final record) and a few mid-file cuts.
	cuts := []int{len(walBytes)}
	for c := len(walBytes) - 1; c > len(walBytes)-40 && c > 0; c-- {
		cuts = append(cuts, c)
	}
	for c := 0; c < len(walBytes); c += 97 {
		cuts = append(cuts, c)
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "CURRENT"), current, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(testDiskOpts(dir))
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		recs, _, _ := readWALRecords(walBytes[:cut])
		want := prefixDump(len(recs))
		if got := dump(t, rec); got != want {
			t.Fatalf("cut %d: recovered state != %d-record prefix\ngot:\n%s\nwant:\n%s",
				cut, len(recs), got, want)
		}
		// The recovered database must be writable (torn tail truncated).
		if _, err := rec.Exec(`INSERT INTO kv (k, v) VALUES (999, 'after')`); err != nil {
			if len(recs) > 0 { // table may not exist at very early cuts
				t.Fatalf("cut %d: post-recovery insert: %v", cut, err)
			}
		}
		rec.Close()
	}
}

// TestDiskKillPoints is the randomized kill-point harness: a workload
// with seals and checkpoints runs to completion, then every file the
// engine wrote is snapshotted; random WAL truncations simulate crashes at
// arbitrary fsync boundaries, and each recovered state must match the
// semantic replay of its surviving record prefix.
func TestDiskKillPoints(t *testing.T) {
	master := t.TempDir()
	opts := testDiskOpts(master)
	db := openDisk(t, opts)
	db.MustExec(`CREATE TABLE ev (id INT, site TEXT, metric FLOAT)`)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 900; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO ev (id, site, metric) VALUES (%d, 's%d', %d.5)`,
			i, i%5, rng.Intn(500)))
		if i == 300 {
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if i == 600 {
			if _, err := db.Exec(`DELETE FROM ev WHERE id < 50`); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	entries, err := os.ReadDir(master)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	var walFile string
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(master, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = b
		if strings.HasPrefix(ent.Name(), "wal-") {
			walFile = ent.Name()
		}
	}
	if walFile == "" {
		t.Fatal("no wal file")
	}
	wal := files[walFile]

	for trial := 0; trial < 25; trial++ {
		cut := rng.Intn(len(wal) + 1)
		dir := t.TempDir()
		for name, b := range files {
			if name == walFile {
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := Open(testDiskOpts(dir))
		if err != nil {
			t.Fatalf("trial %d cut %d: %v", trial, cut, err)
		}
		recs, _, _ := readWALRecords(wal[:cut])
		ref := NewDatabase()
		for i, r := range recs {
			if err := applyToMemory(ref, r); err != nil {
				t.Fatalf("trial %d: oracle rec %d: %v", trial, i, err)
			}
		}
		if got, want := dump(t, rec), dump(t, ref); got != want {
			t.Fatalf("trial %d cut %d: recovered != oracle prefix (%d records)",
				trial, cut, len(recs))
		}
		rec.Close()
	}
}

func TestDiskGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	db.MustExec(`CREATE TABLE c (w INT, i INT)`)

	const workers, per = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := db.InsertRow("c", Int(int64(w)), Int(int64(i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, err := db.NumRows("c")
	if err != nil || n != workers*per {
		t.Fatalf("rows = %d (%v), want %d", n, err, workers*per)
	}
	st := db.EngineStats()
	if st.WALFsyncs >= int64(workers*per) {
		t.Errorf("group commit: %d fsyncs for %d commits (no amortization)",
			st.WALFsyncs, workers*per)
	}

	want := dump(t, db)
	db.Close()
	db = openDisk(t, testDiskOpts(dir))
	if dump(t, db) != want {
		t.Fatal("concurrent commits lost across restart")
	}
}

func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testDiskOpts(dir)
	opts.MergeSegments = 2
	db := openDisk(t, opts)
	db.MustExec(`CREATE TABLE big (id INT, pad TEXT)`)
	for batch := 0; batch < 4; batch++ {
		rows := make([][]Value, vecBlockSize)
		for i := range rows {
			rows[i] = []Value{Int(int64(batch*vecBlockSize + i)), Text("padding-data")}
		}
		if err := db.InsertRows("big", rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(t, db)
	st := db.EngineStats()
	if st.Segments < 2 {
		t.Fatalf("expected multiple segments before merge, got %d", st.Segments)
	}

	// One deterministic compaction sweep folds the runs together.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	st = db.EngineStats()
	if st.Merges == 0 {
		t.Fatalf("no merge ran (segments=%d)", st.Segments)
	}
	if got := dump(t, db); got != want {
		t.Fatal("merge changed query results")
	}

	// Checkpoint deletes the retired segment files.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("post-checkpoint segment files = %d, want 1 (%v)", len(segs), segs)
	}
	want2 := dump(t, db)
	if want2 != want {
		t.Fatal("checkpoint changed query results")
	}
	db.Close()
	db = openDisk(t, opts)
	if dump(t, db) != want {
		t.Fatal("merged state lost across restart")
	}
}

func TestDiskBulkLoad(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	db.MustExec(`CREATE TABLE bulk (id INT, x FLOAT)`)
	err := db.BulkLoad(func() error {
		rows := make([][]Value, 2000)
		for i := range rows {
			rows[i] = []Value{Int(int64(i)), Float(float64(i))}
		}
		return db.InsertRows("bulk", rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := db.EngineStats()
	if st.SealedRows != 1792 { // 2000 rounded down to full blocks
		t.Fatalf("bulk load sealed %d rows, want 1792", st.SealedRows)
	}
	if st.Checkpoints == 0 {
		t.Fatal("bulk load did not checkpoint")
	}
	want := dump(t, db)
	db.Close()
	db = openDisk(t, testDiskOpts(dir))
	if dump(t, db) != want {
		t.Fatal("bulk load lost across restart")
	}
}

func TestZoneMapPruning(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	db.MustExec(`CREATE TABLE zt (id INT, val FLOAT, tag TEXT)`)
	// Insert in id order so blocks have disjoint id ranges: selective range
	// predicates should skip nearly everything.
	rows := make([][]Value, 4096)
	for i := range rows {
		var v Value
		if i >= 1024 && i < 1280 {
			v = Null() // one all-NULL val block
		} else {
			v = Float(float64(i % 100))
		}
		rows[i] = []Value{Int(int64(i)), v, Text(fmt.Sprintf("t%d", i%3))}
	}
	if err := db.InsertRows("zt", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := db.EngineStats(); st.SealedRows != 4096 {
		t.Fatalf("sealed %d, want 4096", st.SealedRows)
	}

	cases := []struct {
		sql        string
		minSkipped int
	}{
		{`SELECT * FROM zt WHERE id BETWEEN 1000 AND 1100`, 14},
		{`SELECT * FROM zt WHERE id < 256`, 15},
		{`SELECT * FROM zt WHERE id >= 3840`, 15},
		{`SELECT * FROM zt WHERE id NOT BETWEEN 0 AND 5000`, 16},
		{`SELECT id FROM zt WHERE val IS NULL AND id >= 0`, 14}, // only the NULL block (+ tail-less)
		{`SELECT * FROM zt WHERE val > 40.0 AND id <= 100`, 15},
	}
	for _, c := range cases {
		pi, err := db.Explain(c.sql)
		if err != nil {
			t.Fatalf("explain %q: %v", c.sql, err)
		}
		if pi.Access != accessSeqScan {
			continue // an index probe would bypass the block scan
		}
		if pi.Blocks != 16 {
			t.Fatalf("%q: blocks=%d, want 16", c.sql, pi.Blocks)
		}
		if pi.BlocksSkipped < c.minSkipped {
			t.Errorf("%q: skipped %d blocks, want >= %d", c.sql, pi.BlocksSkipped, c.minSkipped)
		}
		// Pruned and unpruned scans must agree with each other and with the
		// naive executor.
		withPrune, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		db.SetZoneMapPruning(false)
		noPrune, err := db.Query(c.sql)
		db.SetZoneMapPruning(true)
		if err != nil {
			t.Fatalf("%q unpruned: %v", c.sql, err)
		}
		naive, err := db.QueryNaive(c.sql)
		if err != nil {
			t.Fatalf("%q naive: %v", c.sql, err)
		}
		if resultString(withPrune) != resultString(noPrune) ||
			resultString(withPrune) != resultString(naive) {
			t.Fatalf("%q: pruned/unpruned/naive diverged", c.sql)
		}
	}

	before := db.EngineStats().BlocksSkipped
	if _, err := db.Query(`SELECT * FROM zt WHERE id < 256`); err != nil {
		t.Fatal(err)
	}
	if after := db.EngineStats().BlocksSkipped; after-before < 15 {
		t.Errorf("scan-time skip counter advanced by %d, want >= 15", after-before)
	}
}

// TestZoneMapNaN pins zone maps over a float column holding NaN. When
// NaN compared equal to every number, a block whose first value was NaN
// recorded NaN as both extremes and was pruned for f > 1 although every
// other row matched. NaN now sorts above every number, so the two NaN
// rows (one per block) match f > 1, f >= 2 and NOT BETWEEN -1 AND 1 and
// no longer match BETWEEN 1 AND 3.
func TestZoneMapNaN(t *testing.T) {
	db := openDisk(t, testDiskOpts(t.TempDir()))
	db.MustExec(`CREATE TABLE z (id INT, f FLOAT)`)
	rows := make([][]Value, 2*vecBlockSize)
	for i := range rows {
		f := 2.0
		if i%vecBlockSize == 0 {
			f = math.NaN()
		}
		if i >= vecBlockSize {
			f = -f
		}
		rows[i] = []Value{Int(int64(i)), Float(f)}
	}
	if err := db.InsertRows("z", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int{
		`SELECT id FROM z WHERE f > 1`:                  vecBlockSize + 1,
		`SELECT id FROM z WHERE f < -1`:                 vecBlockSize - 1,
		`SELECT id FROM z WHERE f >= 2`:                 vecBlockSize + 1,
		`SELECT id FROM z WHERE f BETWEEN 1 AND 3`:      vecBlockSize - 1,
		`SELECT id FROM z WHERE f > 'a'`:                0,
		`SELECT id FROM z WHERE f NOT BETWEEN -1 AND 1`: 2 * vecBlockSize,
		`SELECT id FROM z WHERE f > 1e308`:              2,
	} {
		planned, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := db.QueryNaive(q)
		if err != nil {
			t.Fatal(err)
		}
		if resultString(planned) != resultString(naive) || len(planned.Rows) != want {
			t.Errorf("%q: planned %d rows, naive %d, want %d", q, len(planned.Rows), len(naive.Rows), want)
		}
	}
}

// TestZoneMapEqualityNotPruned pins the soundness rule: = and IN compare
// with Equal (which folds numeric text across kinds), so zone maps must
// never prune them — '5' equals 5 even when the zone range is [1,3].
func TestZoneMapEqualityNotPruned(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	db.MustExec(`CREATE TABLE q (x TEXT)`)
	rows := make([][]Value, vecBlockSize)
	for i := range rows {
		rows[i] = []Value{Text(fmt.Sprintf("%d", i%10))} // numeric text "0".."9"
	}
	if err := db.InsertRows("q", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	// Integer 5 vs text zone ["0".."9"]: Compare orders across kinds, Equal
	// folds. The query must still find the matches.
	rs, err := db.Query(`SELECT * FROM q WHERE x = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if want := (vecBlockSize + 4) / 10; len(rs.Rows) != want {
		t.Fatalf("x = 5 matched %d rows, want %d", len(rs.Rows), want)
	}
	pi, err := db.Explain(`SELECT * FROM q WHERE x = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if pi.BlocksSkipped != 0 {
		t.Fatalf("equality pruned %d blocks; Equal is not Compare-bounded", pi.BlocksSkipped)
	}
}

func TestDiskPageCacheHitAllocs(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, testDiskOpts(dir))
	db.MustExec(`CREATE TABLE a (id INT, v FLOAT)`)
	rows := make([][]Value, 4*vecBlockSize)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Float(float64(i))}
	}
	if err := db.InsertRows("a", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}

	stmt, err := db.Prepare(`SELECT id FROM a WHERE v >= 0.0`)
	if err != nil {
		t.Fatal(err)
	}
	warm := func() int {
		n := 0
		rows, err := stmt.QueryStream()
		if err != nil {
			t.Fatal(err)
		}
		var b ValueBatch
		for rows.NextBatch(&b, vecBlockSize) {
			n += b.Rows()
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := warm(); got != len(rows) {
		t.Fatalf("scan returned %d rows, want %d", got, len(rows))
	}

	// Warm-cache block scan: every sealed block is a page-cache hit. The
	// pin covers the whole query including plan lookup and iterator setup;
	// block decode would add two allocations per block and busts the pin.
	avg := testing.AllocsPerRun(20, func() { warm() })
	if avg > 17 {
		t.Errorf("warm block scan allocates %.1f/op, want <= 17", avg)
	}

	st := db.EngineStats()
	if st.PageCacheHits == 0 {
		t.Fatal("no page cache hits recorded")
	}
}

func TestZoneMapProbeAllocs(t *testing.T) {
	zm := []zoneEntry{
		{min: Int(0), max: Int(255), nulls: 0},
		{min: Float(1.5), max: Float(99.5), nulls: 3},
	}
	kernels := []boundVec{
		{pred: &vecPred{kind: vpCmp, col: 0, op: "<"}, a: Int(-5)},
		{pred: &vecPred{kind: vpBetween, col: 1}, a: Float(2), b: Float(3)},
	}
	avg := testing.AllocsPerRun(100, func() {
		if !pruneBlock(zm, kernels) {
			t.Fatal("block should prune")
		}
	})
	if avg != 0 {
		t.Errorf("pruneBlock allocates %.1f/op, want 0", avg)
	}
}

// readWALRecords parses WAL bytes via segment.ReadWAL (which reads from
// a path), returning the valid record prefix.
func readWALRecords(b []byte) ([][]byte, int64, error) {
	f, err := os.CreateTemp("", "walprobe-*.log")
	if err != nil {
		return nil, 0, err
	}
	path := f.Name()
	defer os.Remove(path)
	if _, err := f.Write(b); err != nil {
		f.Close()
		return nil, 0, err
	}
	f.Close()
	return segment.ReadWAL(path)
}

// applyToMemory replays one WAL record against a pure in-memory database,
// the semantic oracle for recovery: segment-file side effects ('S'/'M')
// change only physical layout, never logical contents, so the oracle
// ignores them.
func applyToMemory(db *Database, rec []byte) error {
	if len(rec) == 0 {
		return errf("exec", "empty record")
	}
	r := &rbuf{b: rec[1:]}
	switch rec[0] {
	case recCreateTable:
		name := r.str()
		n := int(r.u32())
		cols := make([]Column, n)
		for i := range cols {
			cols[i].Name = r.str()
			cols[i].Type = ColumnType(r.u8())
		}
		if r.err != nil {
			return r.err
		}
		return db.createTable(&CreateTableStmt{Name: name, Columns: cols})
	case recDropTable:
		name := r.str()
		if r.err != nil {
			return r.err
		}
		return db.dropTable(&DropTableStmt{Name: name})
	case recCreateIndex:
		table, column := r.str(), r.str()
		ordered := r.u8() == 1
		if r.err != nil {
			return r.err
		}
		if ordered {
			return db.CreateOrderedIndex(table, column)
		}
		return db.CreateIndex(table, column)
	case recInsert:
		table := r.str()
		rows, err := decodeRecRows(r)
		if err != nil {
			return err
		}
		vals := make([][]Value, len(rows))
		for i, row := range rows {
			vals[i] = row
		}
		return db.InsertRows(table, vals)
	case recRewrite:
		table := r.str()
		rows, err := decodeRecRows(r)
		if err != nil {
			return err
		}
		db.mu.Lock()
		defer db.mu.Unlock()
		t, err := db.table(table)
		if err != nil {
			return err
		}
		t.Rows = rows
		t.reindex()
		return nil
	case recSeal, recMerge, recCheckpoint:
		// Physical-layout records; 'C' only appears first in a fresh log,
		// which these oracles never replay (no checkpoint in the window).
		return nil
	}
	return errf("exec", "unknown record kind %q", rec[0])
}

// TestZoneMapLegacyInfMax pins how zone maps written while NaN compared
// equal to every number are read back: such a segment recorded a
// NaN-holding block as [-Inf, +Inf], and NaN now sorts above +Inf, so a
// decoded +Inf maximum must not prune a bound a NaN satisfies.
func TestZoneMapLegacyInfMax(t *testing.T) {
	legacy := []zoneEntry{{min: Float(math.Inf(-1)), max: Float(math.Inf(1))}}
	zm, err := decodeZoneMap(encodeZoneMap(legacy))
	if err != nil {
		t.Fatal(err)
	}
	gt := vecPred{kind: vpCmp, col: 0, op: ">"}
	kernels := []boundVec{{pred: &gt, a: Float(math.Inf(1))}}
	if pruneBlock(zm, kernels) {
		t.Error("a decoded +Inf maximum pruned f > +Inf, which a NaN row satisfies")
	}
	fresh := buildZoneMap([]Row{{Float(1)}, {Float(math.NaN())}, {Float(2)}}, 1)
	if !math.IsNaN(fresh[0].max.Float) || fresh[0].min != Float(1) {
		t.Errorf("zone of {1, NaN, 2} = [%v, %v], want [1, NaN]", fresh[0].min, fresh[0].max)
	}
	if pruneBlock(fresh, kernels) {
		t.Error("a NaN maximum pruned f > +Inf")
	}
	kernels[0].a = Float(5)
	if !pruneBlock(buildZoneMap([]Row{{Float(1)}, {Float(2)}}, 1), kernels) {
		t.Error("a NaN-free zone [1, 2] did not prune f > 5")
	}
}
