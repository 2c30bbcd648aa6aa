package minidb

// QueryNaiveArgs runs a SELECT with parameters through the naive
// executor, for the external differential tests' prepared-statement
// comparisons.
func (db *Database) QueryNaiveArgs(sql string, args ...Value) (*ResultSet, error) {
	st, _, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, errf("exec", "use Exec for non-SELECT statements")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.runSelectNaive(sel, args)
}

// UntypeColumn gives a column a type Coerce does not know, so every value
// is stored as it arrives and one column can hold Int, Float and Text
// together. The change is not logged: a reopened database coerces the
// column again until it is untyped again.
func (db *Database) UntypeColumn(table, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(table)
	if err != nil {
		return err
	}
	c := t.ColumnIndex(column)
	if c < 0 {
		return errf("exec", "table %q has no column %q", table, column)
	}
	t.Columns[c].Type = ColumnType(255)
	return nil
}

// OrderedIndexBuilds reports how many times the ordered index on
// table.column was built in full and how many times appended rows were
// merged into it.
func (db *Database) OrderedIndexBuilds(table, column string) (builds, merges int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(table)
	if err != nil {
		return 0, 0
	}
	ox := t.orderedIx(column)
	if ox == nil {
		return 0, 0
	}
	ox.mu.Lock()
	defer ox.mu.Unlock()
	return ox.builds, ox.merges
}

// OrderedLimitErr is the error a build over n rows fails with, nil when
// n positions fit an entry.
func OrderedLimitErr(n int) error { return checkOrderedLimit("c", n) }
