package mapping

import (
	"fmt"
	"sort"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/flatfile"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/xmlstore"
)

// This file provides one-call builders that stand up each wrapper family
// over a generated dataset — the Data Layer + Mapping Layer of one
// PPerfGrid site, in the store format the paper used for that dataset.

// NewMemory builds the in-memory reference wrapper from a dataset.
func NewMemory(d *datagen.Dataset) *Memory {
	m := &Memory{Name: d.Name, Meta: d.Meta}
	for _, e := range d.Execs {
		m.Execs = append(m.Execs, MemoryExecution{
			ID: e.ID, Attrs: e.Attrs, Time: e.Time, Results: e.Results,
		})
	}
	return m
}

// WideOrderedIndexes are the wide table's sorted range indexes: the
// time-window columns every interval query bounds.
var WideOrderedIndexes = []string{"starttime", "endtime"}

// NewWideTable loads the dataset into a fresh single-table database and
// returns the wrapper over it — the paper's HPL store. The execid point-
// query column is hash-indexed, so per-execution lookups probe instead of
// scanning, and the time-window columns carry ordered indexes so range
// predicates binary-search instead of scanning.
func NewWideTable(d *datagen.Dataset) (*WideTableWrapper, error) {
	return NewWideTableWithOptions(d, minidb.Options{})
}

// NewWideTableWithOptions is NewWideTable with storage-engine options.
// When opts.Dir names a directory that already holds a recovered wide
// table, the load is skipped and the store serves the recovered rows —
// the restart path; a fresh directory (or no Dir: the in-memory engine)
// loads the dataset, disk-backed loads streaming through BulkLoad.
func NewWideTableWithOptions(d *datagen.Dataset, opts minidb.Options) (*WideTableWrapper, error) {
	db, recovered, err := openStore(opts)
	if err != nil {
		return nil, err
	}
	const table = "executions"
	if !recovered {
		if err := db.BulkLoad(func() error {
			return datagen.LoadWideTable(db, table, d)
		}); err != nil {
			return nil, fmt.Errorf("mapping: load wide table: %w", err)
		}
	}
	if err := db.CreateIndex(table, "execid"); err != nil {
		return nil, fmt.Errorf("mapping: index wide table: %w", err)
	}
	for _, col := range WideOrderedIndexes {
		if err := db.CreateOrderedIndex(table, col); err != nil {
			return nil, fmt.Errorf("mapping: ordered-index wide table: %w", err)
		}
	}
	metrics := map[string]bool{}
	for _, e := range d.Execs {
		for _, r := range e.Results {
			metrics[r.Metric] = true
		}
	}
	metricCols := make([]string, 0, len(metrics))
	for m := range metrics {
		metricCols = append(metricCols, m)
	}
	sort.Strings(metricCols)
	return &WideTableWrapper{
		DB:      db,
		Table:   table,
		Meta:    d.Meta,
		Attrs:   d.AttrNames(),
		Metrics: metricCols,
	}, nil
}

// StarIndexes are the star-schema index declarations: the fact table's
// join/filter columns (execid, metricid, fociid), the dimension keys the
// joins probe, and the EAV execution table's lookup columns (attrvalue
// lets ExecQueryParams answer its per-attribute DISTINCT from index
// buckets and narrows ExecIDs' probe). NewStar
// declares them; tests and benchmarks reuse the list to reproduce the
// production configuration.
var StarIndexes = [][2]string{
	{"results", "execid"},
	{"results", "metricid"},
	{"results", "fociid"},
	{"foci", "fociid"},
	{"metrics", "metricid"},
	{"metrics", "name"},
	{"collectors", "typeid"},
	{"collectors", "name"},
	{"executions", "execid"},
	{"executions", "attrname"},
	{"executions", "attrvalue"},
}

// StarOrderedIndexes are the star schema's sorted range indexes: the fact
// table's time-window columns (every interval query bounds starttime and
// endtime) and its value column (top-k and threshold queries).
var StarOrderedIndexes = [][2]string{
	{"results", "starttime"},
	{"results", "endtime"},
	{"results", "value"},
}

// NewStar loads the dataset into a fresh five-table star schema and
// returns the wrapper over it — the paper's SMG98 store — with hash
// indexes declared on the join and filter columns and ordered indexes on
// the fact table's time and value columns.
func NewStar(d *datagen.Dataset) (*StarWrapper, error) {
	return NewStarWithOptions(d, minidb.Options{})
}

// NewStarWithOptions is NewStar with storage-engine options. A Dir that
// already holds a recovered star schema skips the load and serves the
// recovered rows (the restart path); otherwise the dataset loads through
// BulkLoad when disk-backed. Index declarations are idempotent, so they
// run on both paths.
func NewStarWithOptions(d *datagen.Dataset, opts minidb.Options) (*StarWrapper, error) {
	db, recovered, err := openStore(opts)
	if err != nil {
		return nil, err
	}
	if !recovered {
		if err := db.BulkLoad(func() error {
			return datagen.LoadStarSchema(db, d)
		}); err != nil {
			return nil, fmt.Errorf("mapping: load star schema: %w", err)
		}
	}
	if err := DeclareStarIndexes(db); err != nil {
		return nil, err
	}
	return &StarWrapper{DB: db, Meta: d.Meta}, nil
}

// openStore opens the backing database for a builder: in-memory when
// opts.Dir is empty, otherwise the disk engine rooted there. recovered
// reports whether the directory already held tables (so the caller must
// not re-load the dataset on top of them).
func openStore(opts minidb.Options) (db *minidb.Database, recovered bool, err error) {
	if opts.Dir == "" {
		return minidb.NewDatabase(), false, nil
	}
	db, err = minidb.Open(opts)
	if err != nil {
		return nil, false, fmt.Errorf("mapping: open store %s: %w", opts.Dir, err)
	}
	return db, len(db.TableNames()) > 0, nil
}

// DeclareStarIndexes declares the production star-schema index
// configuration (StarIndexes + StarOrderedIndexes) on a loaded database.
// Tests, benchmarks, and the scale harness reuse it so every star
// database matches the wrapper's configuration.
func DeclareStarIndexes(db *minidb.Database) error {
	for _, ix := range StarIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			return fmt.Errorf("mapping: index star schema: %w", err)
		}
	}
	for _, ix := range StarOrderedIndexes {
		if err := db.CreateOrderedIndex(ix[0], ix[1]); err != nil {
			return fmt.Errorf("mapping: ordered-index star schema: %w", err)
		}
	}
	return nil
}

// NewFlatFile encodes the dataset as flat text files held in memory and
// returns the wrapper over them — the paper's Presta RMA store.
func NewFlatFile(d *datagen.Dataset) (*FlatFileWrapper, error) {
	files, err := flatfile.Encode(d.ToFlatfile())
	if err != nil {
		return nil, fmt.Errorf("mapping: encode flat files: %w", err)
	}
	store, err := flatfile.OpenFiles(files)
	if err != nil {
		return nil, fmt.Errorf("mapping: open flat files: %w", err)
	}
	return &FlatFileWrapper{Store: store}, nil
}

// NewXML encodes the dataset as one XML document and returns the wrapper
// over it — the paper's future-work XML variant of the HPL store.
func NewXML(d *datagen.Dataset) (*XMLWrapper, error) {
	raw, err := xmlstore.Encode(d.ToXML())
	if err != nil {
		return nil, fmt.Errorf("mapping: encode xml: %w", err)
	}
	store, err := xmlstore.Open(raw)
	if err != nil {
		return nil, fmt.Errorf("mapping: open xml: %w", err)
	}
	return &XMLWrapper{Store: store}, nil
}
