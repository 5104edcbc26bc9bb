package relation

import (
	"math"
	"strings"
	"testing"

	"pcqe/internal/cost"
)

// Regression for the NaN hole in SetConfidence: `p < 0 || p > 1` is
// false for NaN (every comparison with NaN is false), so a NaN
// confidence used to slip past validation and poison every lineage
// probability it touched.
func TestSetConfidenceRejectsNaN(t *testing.T) {
	c := NewCatalog()
	tbl, err := c.CreateTable("T", NewSchema(Column{Name: "X", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.MustInsert(0.5, cost.Linear{Rate: 1}, Int(1))

	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(row.Var(), math.NaN()) }); err == nil {
		t.Fatal("NaN confidence accepted")
	} else if !strings.Contains(err.Error(), "outside [0,1]") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := row.Confidence(); got != 0.5 {
		t.Fatalf("confidence mutated to %v by rejected update", got)
	}

	// Boundary values stay valid.
	if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(row.Var(), 1) }); err != nil {
		t.Fatalf("confidence 1 rejected: %v", err)
	}
	for _, bad := range []float64{-1e-9, 1 + 1e-9, math.Inf(1), math.Inf(-1)} {
		if err := inTxn(c, func(x *Txn) error { return x.SetConfidence(row.Var(), bad) }); err == nil {
			t.Errorf("confidence %v accepted", bad)
		}
	}
}
