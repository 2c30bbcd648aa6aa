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
