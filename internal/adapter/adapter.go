// Package adapter bridges the TPC-C workload's engine-agnostic Backend
// interface to the PhoebeDB kernel.
package adapter

import (
	phoebedb "phoebedb"

	"phoebedb/internal/tpcc"
)

// Phoebe adapts a phoebedb.DB to tpcc.Backend.
type Phoebe struct {
	DB *phoebedb.DB
}

// CreateTable implements tpcc.Backend.
func (p Phoebe) CreateTable(name string, schema *phoebedb.Schema) error {
	return p.DB.CreateTable(name, schema)
}

// CreateIndex implements tpcc.Backend.
func (p Phoebe) CreateIndex(table, index string, cols []string, unique bool) error {
	return p.DB.CreateIndex(table, index, cols, unique)
}

// Execute implements tpcc.Backend: the transaction runs on a co-routine
// pool task slot.
func (p Phoebe) Execute(fn func(c tpcc.Client) error) error {
	return p.DB.Execute(func(tx *phoebedb.Tx) error { return fn(tx) })
}

// ExecuteTagged implements tpcc.TaggedBackend: the transaction's wall
// time, wait events, buffer misses, and WAL bytes are attributed to name
// in phoebe_stat_statements.
func (p Phoebe) ExecuteTagged(name string, fn func(c tpcc.Client) error) error {
	return p.DB.ExecuteTagged(name, func(tx *phoebedb.Tx) error { return fn(tx) })
}
