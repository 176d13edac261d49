package logictest

import (
	"fmt"
	"strings"

	"phoebedb/internal/sql"
)

// skippable reports statements the differential harness must not feed to
// both engines: stat-table reads and EXPLAIN output exist only in the
// real engine, and UPDATEs touching unique-indexed columns are
// deliberately unchecked by the engine (documented), so the two sides
// may legitimately diverge.
func (r *Reference) skippable(stmt sql.Stmt) bool {
	statTable := func(name string) bool { return strings.HasPrefix(name, "phoebe_stat") }
	switch s := stmt.(type) {
	case sql.ExplainStmt:
		return true
	case sql.SelectStmt:
		if statTable(s.Table) {
			return true
		}
		if s.Join != nil && statTable(s.Join.Table) {
			return true
		}
	case sql.InsertStmt:
		return statTable(s.Table)
	case sql.DeleteStmt:
		return statTable(s.Table)
	case sql.CreateTableStmt:
		return statTable(s.Table)
	case sql.CreateIndexStmt:
		return statTable(s.Table)
	case sql.UpdateStmt:
		if statTable(s.Table) {
			return true
		}
		t, ok := r.tables[s.Table]
		if !ok {
			return false
		}
		for name := range s.Set {
			pos := t.schema.ColIndex(name)
			for _, u := range t.uniques {
				for _, c := range u {
					if c == pos {
						return true
					}
				}
			}
		}
	}
	return false
}

// Diff executes one statement on the engine and the reference and
// reports any observable divergence. A nil return means the statement
// was skipped, both sides errored, or both sides agreed.
//
// Comparison rules:
//   - error status must match (messages are not compared);
//   - writes must report the same affected-row count;
//   - SELECT results compare as multisets of rows, float cells within a
//     relative floatTol (see SameRowSet);
//   - with LIMIT n the engine may return any n reference rows, so the
//     engine rows must number min(n, |reference rows without LIMIT|) and
//     be contained in that unlimited reference result;
//   - with ORDER BY, engine rows must be sorted on every key that maps
//     to a unique projected column (ties may order differently).
func Diff(src string, engine Target, ref *Reference) error {
	stmt, perr := sql.Parse(src)
	if perr == nil && ref.skippable(stmt) {
		return nil
	}
	eres, eerr := engine(src)
	rres, rerr := ref.Exec(src)
	if (eerr == nil) != (rerr == nil) {
		return fmt.Errorf("error status diverged on %q:\n  engine: %v\n  reference: %v", src, eerr, rerr)
	}
	if eerr != nil {
		return nil
	}
	s, ok := stmt.(sql.SelectStmt)
	if !ok {
		if eres.Affected != rres.Affected {
			return fmt.Errorf("affected diverged on %q: engine %d, reference %d", src, eres.Affected, rres.Affected)
		}
		return nil
	}
	if s.Limit > 0 {
		noLimit := s
		noLimit.Limit = 0
		full, err := ref.ExecStmt(noLimit)
		if err != nil {
			return fmt.Errorf("reference failed without LIMIT on %q: %v", src, err)
		}
		want := s.Limit
		if len(full.Rows) < want {
			want = len(full.Rows)
		}
		if len(eres.Rows) != want {
			return fmt.Errorf("row count diverged on %q: engine %d, want %d (reference has %d)",
				src, len(eres.Rows), want, len(full.Rows))
		}
		if !ContainsRowSet(full.Rows, eres.Rows) {
			return fmt.Errorf("rows diverged on %q:\n  engine:\n    %s\n  reference (no LIMIT):\n    %s",
				src, strings.Join(RenderRows(eres.Rows, true), "\n    "),
				strings.Join(RenderRows(full.Rows, true), "\n    "))
		}
	} else if !SameRowSet(eres.Rows, rres.Rows) {
		return fmt.Errorf("rows diverged on %q:\n  engine:\n    %s\n  reference:\n    %s",
			src, strings.Join(RenderRows(eres.Rows, true), "\n    "),
			strings.Join(RenderRows(rres.Rows, true), "\n    "))
	}
	if err := checkSorted(s, eres); err != nil {
		return fmt.Errorf("%v on %q", err, src)
	}
	return nil
}

// checkSorted verifies the engine's rows respect ORDER BY on every key
// whose column name appears exactly once in the projection.
func checkSorted(s sql.SelectStmt, res sql.Result) error {
	type key struct {
		pos  int
		desc bool
	}
	var keys []key
	for _, k := range s.OrderBy {
		pos := -1
		dup := false
		for i, name := range res.Columns {
			if name == k.Ref.Col {
				if pos >= 0 {
					dup = true
				}
				pos = i
			}
		}
		if pos < 0 || dup {
			// A lower-priority key is only constrained within ties of the
			// keys above it; once one key is unverifiable, so is the rest.
			break
		}
		keys = append(keys, key{pos, k.Desc})
	}
	for i := 1; i < len(res.Rows); i++ {
		for _, k := range keys {
			c := refCompare(res.Rows[i-1][k.pos], res.Rows[i][k.pos])
			if k.desc {
				c = -c
			}
			if c > 0 {
				return fmt.Errorf("rows %d and %d violate ORDER BY", i-1, i)
			}
			if c < 0 {
				break // strictly ordered on this key; later keys unconstrained
			}
		}
	}
	return nil
}
