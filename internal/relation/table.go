package relation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
)

// BaseTuple is one immutable version of a stored row: the record
// holding its values plus the confidence metadata the PCQE framework
// attaches to every data item. Mutations never edit a published
// version. A row's inserted version is its insert record's columns in
// the record store; every later version is a fresh BaseTuple pushed onto
// the row's chain (copy-on-write), stamped with the committing
// transaction's version. Its fields are unexported and only Txn methods
// build versions, so a published version cannot be written outside this
// package; the values, stored once in the table's record store, cannot
// be written at all. Readers receive versions by value.
type BaseTuple struct {
	v          lineage.Var
	confidence float64
	cost       price

	// table and rec name the record holding the version's values.
	table *Table
	rec   int32
	// tombstone marks a deletion marker version: invisible to scans,
	// resolving to confidence 0 for lineage of older results.
	tombstone bool

	// created is the commit sequence that published this version;
	// versions of an uncommitted transaction carry its (still invisible)
	// write sequence.
	created int64
	// prev is the next-older later version of the same row; nil past the
	// oldest, whose predecessor is the inserted version.
	prev *BaseTuple
}

// Var returns the row's catalog-wide lineage variable.
func (b BaseTuple) Var() lineage.Var { return b.v }

// Confidence returns the version's confidence in [0,1].
func (b BaseTuple) Confidence() float64 { return b.confidence }

// MaxConf returns the maximum attainable confidence: 1 for every row.
func (b BaseTuple) MaxConf() float64 { return 1 }

// Cost returns the price of confidence increments; nil means the row is
// not improvable.
func (b BaseTuple) Cost() cost.Function { return b.cost.function() }

// Values returns a fresh copy of the version's cells, in schema order.
func (b BaseTuple) Values() []Value { return b.table.view().values(nil, b.rec) }

// Improvable reports whether the tuple's confidence can be raised.
func (b BaseTuple) Improvable() bool {
	return b.cost.improvable() && b.confidence < b.MaxConf()
}

// price is a version's cost function as the store keeps it: a
// cost.Linear of positive rate as that rate alone, any other function
// (Linear{0} too) in fn, none as the zero price. Copying a version
// copies no box, and equal functions make equal prices.
type price struct {
	rate float64
	fn   cost.Function
}

func priceOf(fn cost.Function) price {
	if l, ok := fn.(cost.Linear); ok {
		return linearPrice(l.Rate)
	}
	return price{fn: fn}
}

func linearPrice(rate float64) price {
	if rate > 0 {
		return price{rate: rate}
	}
	return price{fn: cost.Linear{Rate: rate}}
}

// function returns the cost function p holds; nil for none.
func (p price) function() cost.Function {
	if p.rate > 0 {
		return cost.Linear{Rate: p.rate}
	}
	return p.fn
}

func (p price) improvable() bool { return p.rate > 0 || p.fn != nil }

// CreatedVersion returns the committed version that produced this row
// version.
func (b BaseTuple) CreatedVersion() int64 { return b.created }

// Tombstone reports whether this version is a deletion marker.
func (b BaseTuple) Tombstone() bool { return b.tombstone }

// Table is an in-memory multi-versioned relation whose rows carry
// confidence and are registered with a Catalog for lineage-variable
// assignment. Values and visibility live in a column-major record store
// (store.go), later row versions on chains the catalog's variable
// directory holds; all mutation goes through catalog transactions.
type Table struct {
	Name    string
	schema  *Schema
	catalog *Catalog

	// mu guards the record count, the chunk directory's header, the
	// index registry and the side map; the cells below the count, their
	// stamps and the version chains are read lock-free (append-only
	// chunks, atomic stamps and heads, immutable versions).
	mu      sync.RWMutex
	chunks  []*chunk
	recs    int
	indexes map[int]*Index // column position -> hash index
	// side holds the cost function of each insert record whose price
	// has one in fn: any but a cost.Linear of positive rate, which CSV
	// and SQL INSERT create only for a rate of 0 (or a negative COST).
	side map[int32]cost.Function

	// live counts visible rows at the latest committed version;
	// transactions apply their deltas at commit.
	live atomic.Int64
	// mutations counts committed row/value mutations (not
	// confidence-only changes); cached statistics are keyed on it.
	mutations atomic.Int64

	statsMu sync.Mutex
	stats   *TableStats
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of live rows at the latest committed version.
func (t *Table) Len() int { return int(t.live.Load()) }

// RowsAt returns the rows visible at the snapshot's pinned version, in
// record order. The returned slice is freshly built — callers may hold
// it across subsequent mutations.
func (t *Table) RowsAt(s *Snapshot) []BaseTuple {
	return t.rowsAt(s.Version())
}

func (t *Table) rowsAt(seq int64) []BaseTuple {
	v := t.view()
	out := make([]BaseTuple, 0, t.Len())
	for r := int32(0); int(r) < v.n; r++ {
		if ch, k := v.at(r); ch.live(k, seq) {
			b, _ := t.catalog.rowAt(ch.vars[k], seq)
			out = append(out, b)
		}
	}
	return out
}

// validateRow type-checks values against the schema, coercing int
// literals in real columns in place.
func (t *Table) validateRow(values []Value) error {
	if len(values) != t.schema.Len() {
		return fmt.Errorf("relation: table %s expects %d values, got %d", t.Name, t.schema.Len(), len(values))
	}
	for i, v := range values {
		if v.IsNull() {
			continue
		}
		want := t.schema.Columns[i].Type
		if v.Type() != want {
			// Allow int literals in real columns.
			if want == TypeFloat && v.Type() == TypeInt {
				f, _ := v.AsFloat()
				values[i] = Float(f)
				continue
			}
			return fmt.Errorf("relation: table %s column %s expects %s, got %s",
				t.Name, t.schema.Columns[i].Name, want, v.Type())
		}
	}
	return nil
}

// Insert validates and appends a row in its own committed transaction,
// assigning it a fresh lineage variable, and returns the inserted
// version.
func (t *Table) Insert(values []Value, confidence float64, fn cost.Function) (*BaseTuple, error) {
	x := t.catalog.Begin()
	row, err := x.Insert(t, values, confidence, fn)
	if err != nil {
		x.Rollback()
		return nil, err
	}
	if _, err := x.Commit(); err != nil {
		return nil, err
	}
	return row, nil
}

// MustInsert is Insert that panics on error; it keeps test fixtures and
// examples terse.
func (t *Table) MustInsert(confidence float64, fn cost.Function, values ...Value) *BaseTuple {
	row, err := t.Insert(values, confidence, fn)
	if err != nil {
		panic(err)
	}
	return row
}
