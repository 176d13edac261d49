package phoebedb

import (
	"fmt"
	"strings"

	"phoebedb/internal/rel"
	"phoebedb/internal/sql"
)

// SQLResult is the outcome of ExecSQL: projected columns and rows for
// SELECT, the affected-row count for writes.
type SQLResult = sql.Result

// sqlCatalog adapts the engine's catalog to the SQL executor.
type sqlCatalog struct{ db *DB }

func (c sqlCatalog) CreateTable(name string, schema *rel.Schema) error {
	return c.db.CreateTable(name, schema)
}

func (c sqlCatalog) CreateIndex(table, index string, cols []string, unique bool) error {
	return c.db.CreateIndex(table, index, cols, unique)
}

func (c sqlCatalog) TableSchema(name string) (*rel.Schema, error) {
	t, err := c.db.engine.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Schema, nil
}

// StatTable implements sql.StatCatalog: phoebe_stat_* names resolve to
// virtual tables materialized from the live metrics registry.
func (c sqlCatalog) StatTable(name string) (*rel.Schema, []rel.Row, bool) {
	return c.db.StatTable(name)
}

// SQLCounters implements sql.CounterCatalog: executor statistics land in
// the DB-wide counter block exported through the metrics registry.
func (c sqlCatalog) SQLCounters() *sql.Counters {
	return &c.db.sqlCounters
}

func (c sqlCatalog) IndexInfo(table string) ([]sql.IndexMeta, error) {
	t, err := c.db.engine.Table(table)
	if err != nil {
		return nil, err
	}
	var out []sql.IndexMeta
	for _, ix := range t.Indexes() {
		// An index under online backfill is maintained by writers but
		// must not serve plans until it is complete.
		if !ix.Live() {
			continue
		}
		out = append(out, sql.IndexMeta{Name: ix.Name, Cols: ix.Cols, Unique: ix.Unique})
	}
	return out, nil
}

// ExecSQL parses and executes one SQL statement. DDL (CREATE TABLE /
// CREATE INDEX) applies immediately; DML runs as one transaction on the
// co-routine pool. Repeated statement shapes hit the prepared-statement
// plan cache, skipping the parser and planner.
// The supported subset is documented in internal/sql. The Result is the
// caller's: its rows and column list are copies.
func (db *DB) ExecSQL(query string) (SQLResult, error) {
	// The cache lookup runs on the caller's goroutine, before a slot is
	// held, so it cannot use a slot's scratch.
	cs, params, ok := db.planCache.Prepare(query, new(sql.Scratch))
	var stmt sql.Stmt
	var fp string
	if ok {
		fp = cs.Fingerprint()
	} else {
		var err error
		if stmt, err = sql.Parse(query); err != nil {
			return SQLResult{}, err
		}
		if sql.IsDDL(stmt) {
			// The catalog adapter routes through db.CreateTable/CreateIndex,
			// which invalidate the plan cache.
			return sql.ExecDDL(sqlCatalog{db: db}, stmt)
		}
		fp = sql.Fingerprint(query)
	}
	return sql.Materialize(func(sink sql.RowSink) (n int, err error) {
		txErr := db.Execute(func(tx *Tx) error {
			n, err = db.runStmt(tx, cs, params, stmt, fp, sink)
			return err
		})
		return n, txErr
	})
}

// ExecSQLTx executes one DML statement inside an existing transaction
// (session use). Statements share the database-wide plan cache with
// ExecSQL and all other sessions. The Result is the caller's: its rows and
// column list are copies.
func (db *DB) ExecSQLTx(tx *Tx, query string) (SQLResult, error) {
	return sql.Materialize(func(sink sql.RowSink) (int, error) {
		return db.execTx(tx, query, sink)
	})
}

// execTx executes one DML statement inside tx, sending a SELECT's rows to
// sink and returning the rows returned or affected. It runs on the
// transaction's slot and uses that slot's statement scratch throughout, so
// a plan-cache hit allocates nothing here. query is only read, never kept.
func (db *DB) execTx(tx *Tx, query string, sink sql.RowSink) (int, error) {
	if cs, params, ok := db.planCache.Prepare(query, db.scratch[tx.Slot()]); ok {
		return db.runStmt(tx, cs, params, nil, cs.Fingerprint(), sink)
	}
	// Past the plan cache the text is kept — parsed identifiers and
	// literals, the fingerprint — so it has to be this call's own.
	query = strings.Clone(query)
	stmt, err := sql.Parse(query)
	if err != nil {
		return 0, err
	}
	if sql.IsDDL(stmt) {
		return 0, fmt.Errorf("phoebedb: DDL is not transactional; use ExecSQL")
	}
	return db.runStmt(tx, nil, nil, stmt, sql.Fingerprint(query), sink)
}

// runStmt executes a prepared (cs, params) or parsed (stmt) DML statement
// inside tx under a statement span, with the slot's scratch.
func (db *DB) runStmt(tx *Tx, cs *sql.CachedStmt, params []Value, stmt sql.Stmt, fp string, sink sql.RowSink) (int, error) {
	span := db.stmtBegin(tx.Slot(), db.stmtStats.Intern(fp))
	tx.NoteStatement(fp)
	cat, sc := sqlCatalog{db: db}, db.scratch[tx.Slot()]
	var n int
	var err error
	if cs != nil {
		n, err = sql.ExecPreparedInto(cat, tx, cs, params, sc, sink)
	} else {
		n, err = sql.ExecInto(cat, tx, stmt, sc, sink)
	}
	db.stmtEnd(&span, int64(n), err)
	return n, err
}

// PlanCacheStats reports the prepared-statement plan cache's hit and miss
// counts.
func (db *DB) PlanCacheStats() (hits, misses int64) {
	return db.planCache.Hits(), db.planCache.Misses()
}
