package sql_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pcqe/internal/core"
	"pcqe/internal/lineage"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
)

// regionCatalog is the serving schema cut down to what region_shared
// reads: per region, suppliers with two orders each inside the item
// window [100, 132) and one outside it. It returns the catalog and, per
// region, what the hierarchical query's safe plan computes without any
// lineage: 1 − Π over suppliers of (1 − p(s)·(1 − Π over its orders in
// the window of (1 − p(o)))).
func regionCatalog(t *testing.T, regions, suppliers int) (*relation.Catalog, map[string]float64) {
	t.Helper()
	c := relation.NewCatalog()
	sup, err := c.CreateTable("Suppliers", relation.NewSchema(
		relation.Column{Name: "Name", Type: relation.TypeString},
		relation.Column{Name: "Region", Type: relation.TypeString},
		relation.Column{Name: "Rating", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	ord, err := c.CreateTable("Orders", relation.NewSchema(
		relation.Column{Name: "Supplier", Type: relation.TypeString},
		relation.Column{Name: "Item", Type: relation.TypeInt},
		relation.Column{Name: "Amount", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(int64(regions * suppliers)))
	conf := func() float64 { return 0.05 + 0.9*r.Float64() }
	want := map[string]float64{}
	x := c.Begin()
	for g := range regions {
		region, none := fmt.Sprintf("R%02d", g), 1.0
		for i := range suppliers {
			name := relation.String_(fmt.Sprintf("S%02d%03d", g, i))
			ps := conf()
			x.MustInsert(sup, ps, nil, name, relation.String_(region), relation.Float(1+4*r.Float64()))
			noOrder := 1.0
			for _, item := range []int{100 + r.Intn(32), 100 + r.Intn(32), 200} {
				po := conf()
				x.MustInsert(ord, po, nil, name, relation.Int(int64(item)), relation.Float(100*r.Float64()))
				if item < 132 {
					noOrder *= 1 - po
				}
			}
			none *= 1 - ps*(1-noOrder)
		}
		want[region] = 1 - none
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	return c, want
}

const wideRegionQuery = "SELECT DISTINCT Region FROM Suppliers JOIN Orders ON Suppliers.Name = Orders.Supplier WHERE Item >= 100 AND Item < 132"

// evaluateRegions runs the query through core.Engine as an analyst.
func evaluateRegions(t *testing.T, c *relation.Catalog) (*core.Response, error) {
	t.Helper()
	store, err := policy.NewStoreFromSpecs([]string{"analyst:audit:0.999"}, []string{"ann=analyst"})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(c, store, nil).Evaluate(core.Request{User: "ann", Purpose: "audit", Query: wideRegionQuery})
}

// TestEngineEvaluatesWideRegionWindows: a 32-item region_shared window
// puts 30 suppliers with two orders each into one region's result. The
// plain disjunction of its join rows shares all 30 supplier variables,
// past lineage.DefaultSharedLimit, and was refused; the DISTINCT's
// factored fold is read-once, so the engine answers, with every
// region's confidence equal to the safe plan's.
func TestEngineEvaluatesWideRegionWindows(t *testing.T) {
	c, want := regionCatalog(t, 2, 30)
	resp, err := evaluateRegions(t, c)
	if err != nil {
		t.Fatal(err)
	}
	var rows []core.Row
	for i := range resp.Released.Len() {
		rows = append(rows, resp.Released.At(i))
	}
	rows = append(rows, resp.Withheld...)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d regions", len(rows), len(want))
	}
	for _, row := range rows {
		region := row.Tuple.Values[0].String()
		if !row.Tuple.Lineage.ReadOnce() {
			t.Errorf("%s: lineage %v is not read-once", region, row.Tuple.Lineage)
		}
		if math.Abs(row.Confidence-want[region]) > 1e-12 {
			t.Errorf("%s: confidence %v, safe plan %v", region, row.Confidence, want[region])
		}
	}
	// The reference folds the same rows into the plain disjunction: the
	// wall the engine used to stop at.
	snap := c.Snapshot()
	defer snap.Release()
	plain, err := newReference(snap, false).query(wideRegionQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range plain.rows {
		if _, err := lineage.CompileExact(row.lin, lineage.DefaultSharedLimit); !errors.Is(err, lineage.ErrTooManyShared) {
			t.Errorf("%v: unfactored lineage compiles (err %v); the catalog no longer reaches the limit", row.vals, err)
		}
	}
}

// TestEngineWideRegionWindowsMatchReference holds the same shape to the
// test-side reference executor, which folds a DISTINCT into the plain
// disjunction and prices it by truth table, on a catalog small enough
// for that: regions of three suppliers.
func TestEngineWideRegionWindowsMatchReference(t *testing.T) {
	c, _ := regionCatalog(t, 3, 3)
	resp, engErr := evaluateRegions(t, c)
	var got answer
	if engErr == nil {
		var all []core.Row
		for i := range resp.Released.Len() {
			all = append(all, resp.Released.At(i))
		}
		all = append(all, resp.Withheld...)
		got = answer{schema: resp.Schema, conf: func(i int) float64 { return all[i].Confidence }}
		for _, r := range all {
			got.rows = append(got.rows, r.Tuple)
		}
	}
	snap := c.Snapshot()
	defer snap.Release()
	ref := newReference(snap, true)
	want, refErr := ref.query(wideRegionQuery)
	if err := agree(ref, got, engErr, want, refErr, false); err != nil {
		t.Fatal(err)
	}
}
