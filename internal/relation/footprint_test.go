package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// footprint loads rows generated by line into a fresh table of the
// given schema through LoadCSV and returns the live heap bytes and heap
// objects the loaded catalog holds per row, after a forced collection.
func footprint(t *testing.T, schema *Schema, header string, rows int, line func(r *rand.Rand) string) (bytesPerRow, objectsPerRow float64) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	var csv bytes.Buffer
	csv.WriteString(header)
	for range rows {
		csv.WriteString(line(r))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCatalog()
	tab, err := c.CreateTable("T", schema)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := LoadCSV(tab, bytes.NewReader(csv.Bytes())); err != nil || n != rows {
		t.Fatalf("LoadCSV = %d, %v; want %d rows", n, err, rows)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The input was live at before; keep it live at after, so the delta
	// is what the catalog holds and not that less the freed input.
	runtime.KeepAlive(c)
	runtime.KeepAlive(csv.Bytes())
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(rows),
		float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / float64(rows)
}

// TestLoadFootprint pins what a loaded row costs in live heap. A row
// that has only its inserted version is columns of its table's record
// store plus its variable directory entry, and owns no heap object: its
// cost rate is a column, and its TEXT cell a code into the catalog's
// dictionary, whose strings are packed into shared slabs.
func TestLoadFootprint(t *testing.T) {
	const rows = 100_000
	// The serving benchmark's Orders shape: TEXT, INTEGER, REAL and a
	// cost rate on every row, 20 000 distinct six-byte suppliers.
	// Measured on x86-64 with Go 1.24, with and without the race
	// detector: 95.4 B and 0.009 objects per row — ≈61 B of chunk
	// vectors, 24 B of directory entry and ≈7 B of dictionary (blocks,
	// probe table, slabs), where the objects are the chunks' vectors.
	// The byte bound is 10 % above.
	const wantB, wantO = 95.4, 0.01
	orders := NewSchema(Column{Name: "Supplier", Type: TypeString}, Column{Name: "Item", Type: TypeInt}, Column{Name: "Amount", Type: TypeFloat})
	b, o := footprint(t, orders, "Supplier,Item,Amount,_confidence,_cost_rate\n", rows, func(r *rand.Rand) string {
		return fmt.Sprintf("S%05d,%d,%.2f,%.4f,%.2f\n", r.Intn(20_000), r.Intn(1000), 100*r.Float64(), 0.05+0.9*r.Float64(), 1+99*r.Float64())
	})
	t.Logf("orders: %.1f B/row, %.3f objects/row", b, o)
	if b > 1.1*wantB || o > wantO {
		t.Errorf("orders: %.1f B/row, %.3f objects/row; want at most %.1f and %.3f", b, o, 1.1*wantB, wantO)
	}
	// Without TEXT cells or cost rates: the same per-chunk objects.
	bare := NewSchema(Column{Name: "Item", Type: TypeInt}, Column{Name: "Amount", Type: TypeFloat})
	b, o = footprint(t, bare, "Item,Amount,_confidence\n", rows, func(r *rand.Rand) string {
		return fmt.Sprintf("%d,%.2f,%.4f\n", r.Intn(1000), 100*r.Float64(), 0.05+0.9*r.Float64())
	})
	t.Logf("bare: %.1f B/row, %.3f objects/row", b, o)
	if o > 0.01 {
		t.Errorf("bare: %.3f heap objects per row; want none beyond the per-chunk ones", o)
	}
}

// TestProbOfAllocatesNothing resolves a row that was only inserted, one
// with later versions and one never allocated: a lineage walk calls
// ProbOf per variable, so none of them may allocate.
func TestProbOfAllocatesNothing(t *testing.T) {
	c, tab := newMVCCTable(t)
	inserted := tab.MustInsert(0.25, nil, Int(1), Int(10))
	changed := tab.MustInsert(0.5, nil, Int(2), Int(20))
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(changed.Var(), 0.75) }); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	defer s.Release()
	var sum float64
	if n := testing.AllocsPerRun(100, func() {
		sum += s.ProbOf(inserted.Var()) + s.ProbOf(changed.Var()) + s.ProbOf(999)
	}); n != 0 {
		t.Fatalf("ProbOf allocates %v times per call triple", n)
	}
	if got := s.ProbOf(inserted.Var()) + s.ProbOf(changed.Var()); got != 1 {
		t.Fatalf("ProbOf sums to %v, want 0.25 + 0.75", got)
	}
}
