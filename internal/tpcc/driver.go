package tpcc

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// TxnType enumerates the five TPC-C transactions.
type TxnType int

const (
	// TxnNewOrder is the tpmC metric transaction (45 % of the mix).
	TxnNewOrder TxnType = iota
	// TxnPayment (43 %).
	TxnPayment
	// TxnOrderStatus (4 %).
	TxnOrderStatus
	// TxnDelivery (4 %).
	TxnDelivery
	// TxnStockLevel (4 %).
	TxnStockLevel
	numTxnTypes
)

// NumTxnTypes is the number of transaction profiles.
const NumTxnTypes = int(numTxnTypes)

// TxnNames maps TxnType to its display name.
var TxnNames = [NumTxnTypes]string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}

// String implements fmt.Stringer.
func (t TxnType) String() string {
	if int(t) < NumTxnTypes {
		return TxnNames[t]
	}
	return "Txn?"
}

// pickTxn draws from the standard mix.
func pickTxn(r *rng) TxnType {
	x := r.Intn(100)
	switch {
	case x < 45:
		return TxnNewOrder
	case x < 88:
		return TxnPayment
	case x < 92:
		return TxnOrderStatus
	case x < 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// Result summarizes a workload run.
type Result struct {
	Duration  time.Duration
	Completed [NumTxnTypes]int64
	UserAbort int64 // intentional 1 % New-Order rollbacks
	Errors    int64 // unexpected failures (lock timeouts, conflicts)
}

// Total returns the count of all completed transactions.
func (r Result) Total() int64 {
	var t int64
	for _, c := range r.Completed {
		t += c
	}
	return t
}

// TpmC is the New-Order throughput in transactions per minute.
func (r Result) TpmC() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Completed[TxnNewOrder]) / r.Duration.Minutes()
}

// Tpm is the total transaction throughput per minute.
func (r Result) Tpm() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Total()) / r.Duration.Minutes()
}

// DriverConfig configures a workload run.
type DriverConfig struct {
	Scale Scale
	// Terminals is the number of concurrent submitting terminals.
	Terminals int
	// Duration bounds the run by wall clock; Transactions (if > 0) bounds
	// it by count instead.
	Duration     time.Duration
	Transactions int64
	// Affinity binds terminal i to warehouse (i mod W)+1, the paper's
	// default. Without affinity, warehouses are drawn at random, which
	// induces cross-worker contention.
	Affinity bool
	// Seed randomizes terminals deterministically.
	Seed int64
}

// Run drives the workload against the backend and returns the result.
func Run(b Backend, cfg DriverConfig) Result {
	if cfg.Terminals <= 0 {
		cfg.Terminals = 1
	}
	if cfg.Duration <= 0 && cfg.Transactions <= 0 {
		cfg.Duration = time.Second
	}
	var completed [NumTxnTypes]atomic.Int64
	var userAborts, errCount, budget atomic.Int64
	budget.Store(cfg.Transactions)

	// A TaggedBackend gets each transaction attributed by type in the
	// engine's per-statement aggregates ("tpcc.NewOrder", ...).
	tagged, _ := b.(TaggedBackend)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for term := 0; term < cfg.Terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			r := newRNG(cfg.Seed + int64(term)*7919)
			homeW := int64(term%cfg.Scale.Warehouses) + 1
			for {
				if cfg.Transactions > 0 {
					if budget.Add(-1) < 0 {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				w := homeW
				if !cfg.Affinity {
					w = r.uniform(1, int64(cfg.Scale.Warehouses))
				}
				tt := pickTxn(r)
				work := func(c Client) error {
					switch tt {
					case TxnNewOrder:
						return NewOrder(c, r, cfg.Scale, w)
					case TxnPayment:
						return Payment(c, r, cfg.Scale, w)
					case TxnOrderStatus:
						return OrderStatus(c, r, cfg.Scale, w)
					case TxnDelivery:
						return Delivery(c, r, cfg.Scale, w)
					default:
						return StockLevel(c, r, cfg.Scale, w)
					}
				}
				var err error
				if tagged != nil {
					err = tagged.ExecuteTagged("tpcc."+tt.String(), work)
				} else {
					err = b.Execute(work)
				}
				switch {
				case err == nil:
					completed[tt].Add(1)
				case errors.Is(err, ErrRollback):
					userAborts.Add(1)
				default:
					errCount.Add(1)
				}
			}
		}(term)
	}
	wg.Wait()

	res := Result{
		Duration:  time.Since(start),
		UserAbort: userAborts.Load(),
		Errors:    errCount.Load(),
	}
	for i := 0; i < NumTxnTypes; i++ {
		res.Completed[i] = completed[i].Load()
	}
	return res
}
