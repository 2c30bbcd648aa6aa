package minidb

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// orderedIndex is a sorted secondary index over one column of a table: a
// compact entry array sorted by (Compare, row position) plus the
// positions of NULL rows. Range predicates binary-search the entries
// instead of scanning the table, and ORDER BY on the indexed column can
// emit rows in index order instead of materializing and sorting.
//
// Each entry is 16 bytes with no pointers (oent): the key is stored
// unpacked the way hash-index bucket representatives are (kind plus int
// or float bits), and a text key's payload lives in the side array
// texts, copied so no decoded disk block stays pinned. Positions are
// int32, so a table past math.MaxInt32 rows cannot be indexed; the
// build fails with a typed error instead of truncating.
//
// The index covers positions [0, built). Appends never touch it: the
// next probe finds built short of the table, reads only the new
// positions, sorts them and merges them in (new positions are larger,
// so on equal keys the older entries stay first). Only rewrites that
// move or change indexed rows — DELETE, UPDATE of the indexed column —
// mark it stale, and the next probe rebuilds it in one O(n log n) sort.
// A bulk load therefore costs O(1) per insert and the first probe pays
// one sort; a publish of a few rows into a built index costs a merge.
//
// NULL is excluded from the entries (mirroring the hash index) and
// tracked separately in nulls: under Compare, NULL sorts before
// everything, so ordered emission needs the NULL positions, and IS NULL
// probes can answer from them directly.
//
// Concurrency: probes run under the database read lock, so the lazy
// build or merge happens while other readers may be probing too. The
// per-index mutex serializes it; the table only grows or goes stale
// under the database write lock, which excludes all readers, so within
// one read-locked window at most the first prober builds or merges and
// every later reader sees a fully built, immutable array.
type orderedIndex struct {
	column string
	col    int // column position in the table

	mu    sync.Mutex
	stale bool     // rows moved or changed: the next ensure rebuilds
	built int      // positions [0, built) are indexed
	ents  []oent   // non-NULL keys sorted by (Compare, position)
	texts []string // text key payloads, indexed by oent.num
	nulls []int    // positions of NULL-valued rows, ascending

	builds, merges int // full builds and append merges, for tests
}

// oent is one ordered-index entry: the key's kind and payload (int bits,
// float bits, or an index into texts) and its row position.
type oent struct {
	num  uint64
	pos  int32
	kind Kind
}

// invalidate marks the index stale. The caller must hold the database
// write lock (which excludes every reader that could be mid-build).
func (ix *orderedIndex) invalidate() { ix.stale = true }

// ensure brings the index up to the table's current row count: a full
// build if stale, a merge of the appended positions if short. Callers
// must hold at least the database read lock; after ensure returns, the
// index is immutable until the next write-locked mutation. A block-read
// error leaves the index as it was (so the next probe retries) and is
// returned for the caller to propagate.
func (ix *orderedIndex) ensure(v *rowsView) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := v.total()
	if !ix.stale && ix.built == n {
		return nil
	}
	if err := checkOrderedLimit(ix.column, n); err != nil {
		return err
	}
	if ix.stale {
		return ix.build(v, n)
	}
	return ix.merge(v, n)
}

// checkOrderedLimit rejects tables whose positions do not fit an
// entry's int32.
func checkOrderedLimit(column string, n int) error {
	if n > math.MaxInt32 {
		return errf("exec", "ordered index on %q: %d rows exceed the %d-row limit", column, n, math.MaxInt32)
	}
	return nil
}

func (ix *orderedIndex) build(v *rowsView, n int) error {
	ents := make([]oent, 0, n)
	ents, texts, nulls := ix.read(v, 0, n, ents, nil, nil)
	if v.err != nil {
		return v.err
	}
	if len(ents) < cap(ents) {
		ents = slices.Clone(ents) // NULL rows left slack
	}
	slices.SortFunc(ents, func(a, b oent) int { return cmpEnt(a, b, texts) })
	ix.ents, ix.texts, ix.nulls = ents, texts, nulls
	ix.built, ix.stale = n, false
	ix.builds++
	return nil
}

// merge folds positions [built, n) into the index. The new entries are
// sorted on their own and merged with the old ones into a fresh array;
// a block-read error leaves the index untouched.
func (ix *orderedIndex) merge(v *rowsView, n int) error {
	add := make([]oent, 0, n-ix.built)
	add, texts, nulls := ix.read(v, ix.built, n, add, ix.texts, ix.nulls)
	if v.err != nil {
		return v.err
	}
	if len(add) > 0 {
		slices.SortFunc(add, func(a, b oent) int { return cmpEnt(a, b, texts) })
		// Copy the old entries in runs between the new ones' insertion
		// points. Every new position is larger than every old one, so
		// cmpEnt places each new entry after the old entries of equal key.
		old := ix.ents
		ents := make([]oent, 0, len(old)+len(add))
		i := 0
		for _, e := range add {
			k := i + sort.Search(len(old)-i, func(d int) bool { return cmpEnt(old[i+d], e, texts) > 0 })
			ents = append(append(ents, old[i:k]...), e)
			i = k
		}
		ix.ents = append(ents, old[i:]...)
	}
	ix.texts, ix.nulls = texts, nulls
	ix.built = n
	ix.merges++
	return nil
}

// read appends the entries and NULL positions of rows [from, to).
func (ix *orderedIndex) read(v *rowsView, from, to int, ents []oent, texts []string, nulls []int) ([]oent, []string, []int) {
	for p := from; p < to; p++ {
		val := v.row(p)[ix.col]
		e := oent{pos: int32(p), kind: val.Kind}
		switch val.Kind {
		case KindNull:
			nulls = append(nulls, p)
			continue
		case KindInt:
			e.num = uint64(val.Int)
		case KindFloat:
			e.num = math.Float64bits(val.Float)
		default:
			e.num = uint64(len(texts))
			texts = append(texts, strings.Clone(val.Text))
		}
		ents = append(ents, e)
	}
	return ents, texts, nulls
}

// cmpKey orders two entries' keys exactly as Compare orders the values
// they hold, without boxing the common same-kind pairs.
func cmpKey(a, b oent, texts []string) int {
	if a.kind == b.kind {
		switch a.kind {
		case KindInt:
			return cmp.Compare(int64(a.num), int64(b.num))
		case KindFloat:
			return cmpFloat(math.Float64frombits(a.num), math.Float64frombits(b.num))
		case KindText:
			return strings.Compare(texts[a.num], texts[b.num])
		}
	}
	return Compare(entValue(a, texts), entValue(b, texts))
}

// cmpEnt is the index order: (Compare, position).
func cmpEnt(a, b oent, texts []string) int {
	if c := cmpKey(a, b, texts); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

func entValue(e oent, texts []string) Value {
	switch e.kind {
	case KindInt:
		return Int(int64(e.num))
	case KindFloat:
		return Float(math.Float64frombits(e.num))
	}
	return Text(texts[e.num])
}

// key returns the i-th key in index order; posAt its row position.
func (ix *orderedIndex) key(i int) Value { return entValue(ix.ents[i], ix.texts) }
func (ix *orderedIndex) posAt(i int) int { return int(ix.ents[i].pos) }

// sameKey reports whether entries i and j hold Compare-equal keys.
func (ix *orderedIndex) sameKey(i, j int) bool {
	return cmpKey(ix.ents[i], ix.ents[j], ix.texts) == 0
}

// lowerBound returns the first entry i whose key is >= v (inclusive) or
// > v (exclusive). The caller must have called ensure.
func (ix *orderedIndex) lowerBound(v Value, incl bool) int {
	return sort.Search(len(ix.ents), func(i int) bool {
		c := Compare(ix.key(i), v)
		if incl {
			return c >= 0
		}
		return c > 0
	})
}

// upperBound returns one past the last entry i whose key is <= v
// (inclusive) or < v (exclusive).
func (ix *orderedIndex) upperBound(v Value, incl bool) int {
	return sort.Search(len(ix.ents), func(i int) bool {
		c := Compare(ix.key(i), v)
		if incl {
			return c > 0
		}
		return c >= 0
	})
}

// addOrderedIndex declares an ordered index on the named column. Declaring
// the same column twice is a no-op; created reports whether this call
// declared it. The index is built lazily on first probe.
func (t *Table) addOrderedIndex(column string) (created bool, err error) {
	col := t.ColumnIndex(column)
	if col < 0 {
		return false, errf("plan", "table %q has no column %q to index", t.Name, column)
	}
	if t.ordered == nil {
		t.ordered = make(map[string]*orderedIndex)
	}
	if _, ok := t.ordered[column]; ok {
		return false, nil
	}
	t.ordered[column] = &orderedIndex{column: column, col: col, stale: true}
	return true, nil
}

// orderedIx returns the ordered index on the named column, or nil.
func (t *Table) orderedIx(column string) *orderedIndex {
	return t.ordered[column]
}

// CreateOrderedIndex declares a sorted range index on table.column
// (`CREATE ORDERED INDEX` in SQL). Subsequent range predicates
// (<, <=, >, >=, BETWEEN) on that column binary-search the index instead
// of scanning, IS NULL probes answer from the tracked NULL positions, and
// a single-key ORDER BY on the column can stream rows in index order
// (with LIMIT stopping early). The index is maintained lazily: the first
// probe builds it, the next probe after inserts merges just the appended
// rows in, and only DELETE or an UPDATE of the column forces a rebuild.
func (db *Database) CreateOrderedIndex(table, column string) error {
	return db.commitDurable(db.createIndex(table, column, true))
}

// OrderedIndexes reports the ordered-indexed columns of a table, for
// introspection and tests.
func (db *Database) OrderedIndexes(table string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(table)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(t.ordered))
	for c := range t.ordered {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}
