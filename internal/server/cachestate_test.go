package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"pcqe/internal/core"
	"pcqe/internal/cost"
	"pcqe/internal/lineage"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
)

// servingFixture is a small copy of the serving benchmark's database —
// Suppliers and Orders, indexed on the join columns — plus the paper's
// Proposal table for pairQuery's self-join, with one analyst whose β
// splits the results, and the base variables a confidence-only commit
// may change.
func servingFixture(t *testing.T) (*relation.Catalog, *policy.Store, []lineage.Var) {
	t.Helper()
	const suppliers, orders, items, regions = 200, 2000, 100, 10
	c := relation.NewCatalog()
	mk := func(name string, cols ...relation.Column) *relation.Table {
		tab, err := c.CreateTable(name, relation.NewSchema(cols...))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	sup := mk("Suppliers", relation.Column{Name: "Name", Type: relation.TypeString},
		relation.Column{Name: "Region", Type: relation.TypeString}, relation.Column{Name: "Rating", Type: relation.TypeFloat})
	ord := mk("Orders", relation.Column{Name: "Supplier", Type: relation.TypeString},
		relation.Column{Name: "Item", Type: relation.TypeInt}, relation.Column{Name: "Amount", Type: relation.TypeFloat})
	prop := mk("Proposal", relation.Column{Name: "Company", Type: relation.TypeString},
		relation.Column{Name: "Funding", Type: relation.TypeFloat})

	r := rand.New(rand.NewSource(39))
	name := func(i int) relation.Value { return relation.String_(fmt.Sprintf("S%05d", i)) }
	var vars []lineage.Var
	x := c.Begin()
	for i := 0; i < suppliers; i++ {
		b := x.MustInsert(sup, 0.05+0.9*r.Float64(), cost.Linear{Rate: 100}, name(i),
			relation.String_(fmt.Sprintf("R%02d", r.Intn(regions))), relation.Float(1+4*r.Float64()))
		vars = append(vars, b.Var())
	}
	for i := 0; i < orders; i++ {
		b := x.MustInsert(ord, 0.05+0.9*r.Float64(), cost.Linear{Rate: 100}, name(r.Intn(suppliers)),
			relation.Int(int64(r.Intn(items))), relation.Float(100*r.Float64()))
		vars = append(vars, b.Var())
	}
	for _, co := range []string{"AcmeSoft", "ZStart", "ZStart", "ZStart"} {
		b := x.MustInsert(prop, 0.05+0.9*r.Float64(), cost.Linear{Rate: 100}, relation.String_(co), relation.Float(1e6*r.Float64()))
		vars = append(vars, b.Var())
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	for tab, col := range map[*relation.Table]string{sup: "Name", ord: "Supplier"} {
		if _, err := tab.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}

	rbac := policy.NewRBAC()
	rbac.AddRole("analyst")
	if err := rbac.AssignUser("ana", "analyst"); err != nil {
		t.Fatal(err)
	}
	purposes := policy.NewPurposeTree()
	if err := purposes.Add("analysis", ""); err != nil {
		t.Fatal(err)
	}
	store := policy.NewStore(rbac, purposes)
	if err := store.Add(policy.ConfidencePolicy{Role: "analyst", Purpose: "analysis", Beta: 0.3}); err != nil {
		t.Fatal(err)
	}
	return c, store, vars
}

// TestWireBodyIgnoresCacheState is the cache-state metamorphic test:
// the wire body of a statement (timings aside) is a function of the
// statement and the version alone. Over the serving shapes and one
// shared-lineage query, a cold engine, the same engine warm (plan and
// confidence caches primed) and a fresh engine give byte-identical
// bodies; after a confidence-only commit, which keeps the warm engine's
// plans and the cache entries it did not touch, the warm engine and a
// fresh one agree again at the new version.
func TestWireBodyIgnoresCacheState(t *testing.T) {
	const join = " FROM Suppliers JOIN Orders ON Suppliers.Name = Orders.Supplier WHERE "
	queries := map[string]string{
		"distinct_join":   "SELECT DISTINCT Suppliers.Name" + join + "Amount > 80.00 AND Rating > 3.70",
		"item_join":       "SELECT Suppliers.Name, Orders.Amount" + join + "Item = 41",
		"distinct_item":   "SELECT DISTINCT Suppliers.Name" + join + "Item = 41",
		"supplier_join":   "SELECT Suppliers.Name, Orders.Item, Orders.Amount" + join + "Suppliers.Name = 'S00097'",
		"region_distinct": "SELECT DISTINCT Region FROM Suppliers WHERE Rating > 3.125",
		"region_shared":   "SELECT DISTINCT Region" + join + "Item >= 30 AND Item < 38",
		"point":           "SELECT Name, Region, Rating FROM Suppliers WHERE Name = 'S00097'",
		"pair": `SELECT DISTINCT a.Company FROM Proposal a JOIN Proposal b ON a.Company = b.Company
			WHERE a.Funding < 1000000`,
	}
	c, store, vars := servingFixture(t)
	body := func(e *core.Engine, shape string) (string, *core.Response) {
		t.Helper()
		resp, err := e.Evaluate(core.Request{User: "ana", Query: queries[shape], Purpose: "analysis", MinFraction: 0.9})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		w := toWire(resp, "")
		w.Timings = nil
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp
	}

	warm := core.NewEngine(c, store, nil)
	before := map[string]string{}
	var shared, hits int64
	for shape := range queries {
		cold, _ := body(warm, shape)
		again, resp := body(warm, shape)
		fresh, _ := body(core.NewEngine(c, store, nil), shape)
		if again != cold || fresh != cold {
			t.Errorf("%s at version %d:\ncold  %s\nwarm  %s\nfresh %s", shape, c.Version(), cold, again, fresh)
		}
		lin := resp.Timings.Find("lineage")
		shared += lin.Attr("bounded_rows") + lin.Attr("hard_rows")
		hits += lin.Attr("conf_cache_hits")
		before[shape] = cold
	}
	if shared == 0 || hits == 0 {
		t.Fatalf("no query exercised the confidence cache: %d shared rows, %d warm hits", shared, hits)
	}

	planEpoch := c.PlanEpoch()
	x := c.Begin()
	for i := 0; i < len(vars); i += 3 {
		if err := x.SetConfidence(vars[i], 0.05+0.9*float64(i%7)/7); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.PlanEpoch() != planEpoch {
		t.Fatal("fixture: a confidence-only commit moved the plan epoch")
	}
	moved := 0
	for shape := range queries {
		got, _ := body(warm, shape)
		want, _ := body(core.NewEngine(c, store, nil), shape)
		if got != want {
			t.Errorf("%s after a confidence-only commit, version %d:\nwarm  %s\nfresh %s", shape, c.Version(), got, want)
		}
		if got != before[shape] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("fixture: the commit changed no body, so the warm engine was never put to the test")
	}
}
