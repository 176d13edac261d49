package logictest

import (
	"sync"
	"testing"

	phoebedb "phoebedb"
)

// fuzzSeeds cover every grammar production; the checked-in corpus under
// testdata/fuzz/FuzzSQLVsReference mirrors them for `go test -fuzz` runs.
var fuzzSeeds = []string{
	"CREATE TABLE ft (a INT, s STRING, f FLOAT)",
	"CREATE TABLE fu (x INT, g STRING)",
	"INSERT INTO ft VALUES (1, 'a', 1.5), (2, 'b', 2), (1, 'a', 0.25)",
	"INSERT INTO fu VALUES (1, 'a'), (3, 'c')",
	"CREATE INDEX ft_a ON ft (a)",
	"CREATE UNIQUE INDEX fu_x ON fu (x)",
	"SELECT * FROM ft WHERE a = 1",
	"SELECT a, f FROM ft WHERE a = 1 AND f = 1.5",
	"SELECT s FROM ft ORDER BY f DESC, a LIMIT 2",
	"SELECT ft.s, fu.g FROM ft JOIN fu ON ft.a = fu.x WHERE g = 'a'",
	"SELECT a, count(*), sum(f), min(s), max(f), avg(a) FROM ft GROUP BY a ORDER BY a",
	"SELECT count(*) FROM ft WHERE a = 99",
	"UPDATE ft SET f = 9.75, s = 'z' WHERE a = 2",
	"DELETE FROM fu WHERE x = 3",
	"SELECT g FROM fu GROUP BY g",
	"INSERT INTO fu VALUES (1, 'dup')",
	"SELECT nope FROM ft",
	"SELECT sum(s) FROM ft",
	"SELECT a FROM ft WHERE a > 1 AND a <= 2",
	"SELECT a, f FROM ft WHERE f >= 0.25 AND f < 2 AND a != 2",
	"SELECT x FROM fu WHERE x BETWEEN 1 AND 3",
	"SELECT count(*), sum(f), min(f), max(a) FROM ft WHERE a >= 1 AND f < 9",
	"SELECT s FROM ft WHERE s > 'a' ORDER BY s LIMIT 2",
	"SELECT a FROM ft WHERE a > 2 AND a < 1",
	"UPDATE ft SET f = 0.5 WHERE f BETWEEN 1 AND 3",
	"DELETE FROM ft WHERE a != 1 AND a >= 2",
	"CREATE INDEX ft_sa ON ft (s, a)",
	"SELECT fu.g, ft.f FROM fu JOIN ft ON fu.x = ft.a WHERE ft.s = 'a' AND ft.f > 0",
}

// FuzzSQLVsReference feeds arbitrary statements to the engine and the
// reference in lockstep. One database and one reference live per fuzz
// process; state accumulates across inputs, which is exactly the point —
// later statements read whatever earlier ones built.
func FuzzSQLVsReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	db, err := phoebedb.Open(phoebedb.Options{Dir: f.TempDir(), Workers: 2, SlotsPerWorker: 4})
	if err != nil {
		f.Fatalf("open: %v", err)
	}
	ref := NewReference()
	var mu sync.Mutex
	f.Fuzz(func(t *testing.T, stmt string) {
		if len(stmt) > 4096 {
			t.Skip()
		}
		mu.Lock()
		defer mu.Unlock()
		if err := Diff(stmt, db.ExecSQL, ref); err != nil {
			t.Fatal(err)
		}
	})
}
