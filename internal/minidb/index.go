package minidb

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// hashIndex is a secondary hash index over one column of a table. It maps
// a normalized value key to the positions (in Table.Rows order) of the
// rows holding that value, so equality probes and hash-join builds touch
// only matching rows instead of scanning the whole table.
//
// Buckets may contain false positives — two values whose keys collide but
// that are not Equal (e.g. the texts '5' and '5.0' share the numeric key)
// — so every consumer re-evaluates its predicate on the candidate rows.
// The key function guarantees there are no false negatives: any two
// values for which Equal reports true map to the same key.
//
// Each bucket also records its representative — the value of its first
// row — and whether any later row holds a value DISTINCT tells apart from
// it (valueSet identity: Int 5, Float 5 and Text "5.0" share the key n:5
// but are three values; so are -0 and 0, and ints above 2^53 that round
// to one float). A bucket that is not mixed holds exactly one DISTINCT
// value, which lets DISTINCT and COUNT(DISTINCT) be answered from the
// bucket list without reading rows (agg.go). A t: key holds exactly
// one text and is never mixed.
type hashIndex struct {
	column  string
	col     int              // column position in the table
	ids     map[string]int32 // key -> index into buckets
	buckets []bucket         // ascending by first position
	nulls   []int            // positions of NULL rows, ascending
	indexed int              // non-NULL positions across all buckets
	mixed   int              // buckets with mixed set
}

// bucket is one hash-index key's rows. The representative is stored
// unpacked (kind plus payload, 32 bytes against a Value's 40 and a
// separate flag): scale stores carry 10^5-bucket indexes.
type bucket struct {
	pos   []int  // ascending
	text  string // representative payload: text,
	num   uint64 // or int / float bits
	kind  Kind
	mixed bool // some row's value is not DISTINCT-identical to rep()
}

// rep returns the bucket's representative, the value at pos[0].
func (b *bucket) rep() Value {
	switch b.kind {
	case KindInt:
		return Int(int64(b.num))
	case KindFloat:
		return Float(math.Float64frombits(b.num))
	}
	return Text(b.text)
}

// appendIndexKey appends a value's normalized hash key to dst,
// consistently with Equal: all numerically equal values (ints, floats,
// and numeric text) share one key, and non-numeric text keys on the exact
// string. NULL is not indexed — SQL equality with NULL is never true, so
// NULL rows can never match an equality probe or an equi-join key.
//
// Probes pass a reused scratch buffer and look the bucket map up through
// string(key), which the compiler compiles without a heap allocation —
// the per-probe "n:" + FormatFloat garbage the string-building form paid
// is gone (pinned by TestIndexProbeAllocs).
func appendIndexKey(dst []byte, v Value) ([]byte, bool) {
	if v.IsNull() {
		return dst, false
	}
	if f, ok := v.AsFloat(); ok {
		if f == 0 {
			f = 0 // fold -0 onto +0; they compare equal
		}
		dst = append(dst, 'n', ':')
		return strconv.AppendFloat(dst, f, 'g', -1, 64), true
	}
	dst = append(dst, 't', ':')
	return append(dst, v.Text...), true
}

// indexKey materializes the key as a string, for self-built hash-join
// buckets (which must retain the key).
func indexKey(v Value) (string, bool) {
	var a [32]byte
	k, ok := appendIndexKey(a[:0], v)
	if !ok {
		return "", false
	}
	return string(k), true
}

// add records a newly appended row at position pos. Only a new bucket
// allocates its key.
func (ix *hashIndex) add(pos int, row Row) {
	v := row[ix.col]
	var a [32]byte
	k, ok := appendIndexKey(a[:0], v)
	if !ok {
		ix.nulls = append(ix.nulls, pos)
		return
	}
	ix.indexed++
	if id, ok := ix.ids[string(k)]; ok {
		b := &ix.buckets[id]
		b.pos = append(b.pos, pos)
		if !b.mixed && !sameValue(b.rep(), v) {
			b.mixed = true
			ix.mixed++
		}
		return
	}
	key := string(k)
	b := bucket{pos: []int{pos}, kind: v.Kind}
	switch v.Kind {
	case KindInt:
		b.num = uint64(v.Int)
	case KindFloat:
		b.num = math.Float64bits(v.Float)
	default:
		// The representative must not pin a decoded block's text: share
		// the key's bytes when they spell the text (always for t: keys,
		// and for canonical numeric text such as "42"), else copy it.
		if t := key[2:]; t == v.Text {
			b.text = t
		} else {
			b.text = strings.Clone(v.Text)
		}
	}
	ix.ids[key] = int32(len(ix.buckets))
	ix.buckets = append(ix.buckets, b)
}

// bucketOf returns the bucket an equality probe for v reads, or nil when
// no row can be Equal to v.
func (ix *hashIndex) bucketOf(v Value) *bucket {
	var a [32]byte
	k, ok := appendIndexKey(a[:0], v)
	if !ok {
		return nil
	}
	return ix.bucketOfKey(k)
}

func (ix *hashIndex) bucketOfKey(k []byte) *bucket {
	if id, ok := ix.ids[string(k)]; ok {
		return &ix.buckets[id]
	}
	return nil
}

// lookup returns the candidate row positions for an equality probe, in
// ascending (insertion) order. A nil probe key yields no candidates. The
// probe key lives in a stack scratch buffer; no allocation per probe.
func (ix *hashIndex) lookup(v Value) []int {
	if b := ix.bucketOf(v); b != nil {
		return b.pos
	}
	return nil
}

// rebuild recomputes the index from scratch, after deletes or updates
// invalidate stored positions. It iterates the table's full position
// space — sealed blocks then tail — so building an index on a disk table
// decodes every block once; the error is the view's block-read error, if
// any (impossible on pure-tail tables, which is every post-materialize
// rebuild site).
func (ix *hashIndex) rebuild(v *rowsView) error {
	ix.ids = make(map[string]int32, len(ix.buckets))
	ix.buckets = make([]bucket, 0, len(ix.buckets))
	ix.nulls = nil
	ix.indexed, ix.mixed = 0, 0
	n := v.total()
	for pos := 0; pos < n; pos++ {
		ix.add(pos, v.row(pos))
	}
	ix.buckets = slices.Clone(ix.buckets) // drop the append slack
	return v.err
}

// addIndex builds a hash index on the named column. Indexing the same
// column twice is a no-op; created reports whether this call built it
// (so the caller knows to log the declaration).
func (t *Table) addIndex(column string) (created bool, err error) {
	col := t.ColumnIndex(column)
	if col < 0 {
		return false, errf("plan", "table %q has no column %q to index", t.Name, column)
	}
	if t.indexes == nil {
		t.indexes = make(map[string]*hashIndex)
	}
	if _, ok := t.indexes[column]; ok {
		return false, nil
	}
	ix := &hashIndex{column: column, col: col}
	v := t.view()
	if err := ix.rebuild(&v); err != nil {
		return false, err
	}
	t.indexes[column] = ix
	return true, nil
}

// index returns the hash index on the named column, or nil.
func (t *Table) index(column string) *hashIndex {
	return t.indexes[column]
}

// noteInsert maintains the hash indexes after a row append. Ordered
// indexes need nothing: the next probe finds them short of the table and
// merges the appended rows in (ordered.go), keeping bulk loads O(1) per
// row.
func (t *Table) noteInsert() {
	pos := t.sealedRows + len(t.Rows) - 1
	row := t.Rows[len(t.Rows)-1]
	for _, ix := range t.indexes {
		ix.add(pos, row)
	}
}

// reindex rebuilds all indexes, after deletes or updates move or change
// rows in place. Every caller runs after materialize (or on a memory
// table), so the view is pure tail and cannot hit a block-read error.
func (t *Table) reindex() {
	for _, ix := range t.indexes {
		v := t.view()
		ix.rebuild(&v)
	}
	for _, ox := range t.ordered {
		ox.invalidate()
	}
}

// CreateIndex builds a secondary hash index on table.column. Subsequent
// equality filters and equi-joins on that column probe the index instead
// of scanning. The index is maintained automatically: inserts append to
// it, deletes and updates rebuild it.
func (db *Database) CreateIndex(table, column string) error {
	return db.commitDurable(db.createIndex(table, column, false))
}

// createIndex builds a hash (or declares an ordered) index, logging the
// declaration to the WAL when it is new.
func (db *Database) createIndex(table, column string, ordered bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(table)
	if err != nil {
		return err
	}
	var created bool
	if ordered {
		created, err = t.addOrderedIndex(column)
	} else {
		created, err = t.addIndex(column)
	}
	if err == nil && created && db.eng != nil {
		db.eng.logRecord(encCreateIndex(table, column, ordered))
	}
	return err
}

// Indexes reports the indexed columns of a table, for introspection and
// tests.
func (db *Database) Indexes(table string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(table)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}
