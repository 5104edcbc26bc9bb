package sql

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pcqe/internal/cost"
	"pcqe/internal/relation"
)

// ventureCatalog builds the paper's running example database.
func ventureCatalog(t *testing.T) *relation.Catalog {
	t.Helper()
	c := relation.NewCatalog()
	proposal, err := c.CreateTable("Proposal", relation.NewSchema(
		relation.Column{Name: "Company", Type: relation.TypeString},
		relation.Column{Name: "Proposal", Type: relation.TypeString},
		relation.Column{Name: "Funding", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateTable("CompanyInfo", relation.NewSchema(
		relation.Column{Name: "Company", Type: relation.TypeString},
		relation.Column{Name: "Income", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	proposal.MustInsert(0.5, cost.Linear{Rate: 50},
		relation.String_("AcmeSoft"), relation.String_("cloud"), relation.Float(2e6))
	proposal.MustInsert(0.3, cost.Linear{Rate: 1000},
		relation.String_("ZStart"), relation.String_("sensor"), relation.Float(8e5))
	proposal.MustInsert(0.4, cost.Linear{Rate: 100},
		relation.String_("ZStart"), relation.String_("mobile"), relation.Float(9e5))
	info.MustInsert(0.1, cost.Linear{Rate: 100},
		relation.String_("ZStart"), relation.Float(1.2e5))
	info.MustInsert(0.9, nil, relation.String_("AcmeSoft"), relation.Float(5e6))
	return c
}

// queryLatest runs q through QuerySnap at a fresh snapshot of the
// latest committed version, for tests that do not care which version
// they read.
func queryLatest(cat *relation.Catalog, q string) ([]*relation.Tuple, *relation.Schema, error) {
	snap := cat.Snapshot()
	defer snap.Release()
	return QuerySnap(snap, q)
}

func TestQueryRunningExample(t *testing.T) {
	c := ventureCatalog(t)
	rows, schema, err := queryLatest(c, `
		SELECT DISTINCT CompanyInfo.Company, Income
		FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company
		WHERE Funding < 1000000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if name, _ := rows[0].Values[0].AsString(); name != "ZStart" {
		t.Fatalf("company = %v", rows[0].Values[0])
	}
	if schema.Columns[1].Name != "Income" {
		t.Errorf("schema = %v", schema)
	}
	// p38 = (0.3 ∨ 0.4) ∧ 0.1 = 0.058.
	if p := c.Snapshot().Confidence(rows[0]); math.Abs(p-0.058) > 1e-9 {
		t.Fatalf("confidence = %v, want 0.058", p)
	}
}

func TestQueryProjectionAndWhere(t *testing.T) {
	c := ventureCatalog(t)
	rows, schema, err := queryLatest(c, "SELECT Company, Funding / 1000 AS funding_k FROM Proposal WHERE Funding >= 900000 ORDER BY Funding DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if schema.Columns[1].Name != "funding_k" {
		t.Errorf("alias lost: %v", schema)
	}
	if f, _ := rows[0].Values[1].AsFloat(); f != 2000 {
		t.Errorf("first row funding_k = %v", rows[0].Values[1])
	}
}

func TestQueryStar(t *testing.T) {
	c := ventureCatalog(t)
	rows, schema, err := queryLatest(c, "SELECT * FROM Proposal")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || schema.Len() != 3 {
		t.Fatalf("rows=%d cols=%d", len(rows), schema.Len())
	}
}

func TestQueryCommaJoinEqualsExplicitJoin(t *testing.T) {
	c := ventureCatalog(t)
	a, _, err := queryLatest(c, `SELECT DISTINCT CompanyInfo.Company FROM CompanyInfo, Proposal
		WHERE CompanyInfo.Company = Proposal.Company AND Funding < 1000000`)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := queryLatest(c, `SELECT DISTINCT CompanyInfo.Company FROM CompanyInfo
		JOIN Proposal ON CompanyInfo.Company = Proposal.Company
		WHERE Funding < 1000000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 1 {
		t.Fatalf("comma join %d rows, explicit join %d rows", len(a), len(b))
	}
	// Same lineage probability either way.
	pa := c.Snapshot().Confidence(a[0])
	pb := c.Snapshot().Confidence(b[0])
	if math.Abs(pa-pb) > 1e-9 {
		t.Fatalf("confidences differ: %v vs %v", pa, pb)
	}
}

func TestQueryTableAliasesAndSelfJoin(t *testing.T) {
	c := ventureCatalog(t)
	// Pairs of distinct proposals from the same company.
	rows, _, err := queryLatest(c, `
		SELECT a.Proposal, b.Proposal
		FROM Proposal a JOIN Proposal b ON a.Company = b.Company
		WHERE a.Proposal < b.Proposal`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("self join rows = %d, want 1 (ZStart pair)", len(rows))
	}
}

func TestQueryAggregates(t *testing.T) {
	c := ventureCatalog(t)
	rows, schema, err := queryLatest(c, `
		SELECT Company, COUNT(*) AS n, SUM(Funding) AS total, MIN(Funding), MAX(Funding), AVG(Funding)
		FROM Proposal GROUP BY Company ORDER BY Company`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	if schema.Columns[1].Name != "n" {
		t.Errorf("agg alias: %v", schema.Columns[1].Name)
	}
	// First group: AcmeSoft.
	if n, _ := rows[0].Values[1].AsInt(); n != 1 {
		t.Errorf("AcmeSoft count = %d", n)
	}
	// Second group: ZStart, total 1.7M.
	if total, _ := rows[1].Values[2].AsFloat(); math.Abs(total-1.7e6) > 1e-6 {
		t.Errorf("ZStart total = %v", rows[1].Values[2])
	}
}

func TestQueryHaving(t *testing.T) {
	c := ventureCatalog(t)
	rows, _, err := queryLatest(c, `
		SELECT Company FROM Proposal GROUP BY Company HAVING COUNT(*) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if name, _ := rows[0].Values[0].AsString(); name != "ZStart" {
		t.Errorf("company = %v", rows[0].Values[0])
	}
}

// TestQueryHavingPredicates: HAVING lowers through the same code as
// WHERE, so LIKE, IN (list) and BETWEEN work over group keys and
// aggregates; an IN subquery keeps its WHERE/ON-only error.
func TestQueryHavingPredicates(t *testing.T) {
	c := ventureCatalog(t)
	for having, want := range map[string]string{
		"Company LIKE 'Z%'":                 "ZStart:2",
		"Company NOT LIKE 'Z%'":             "AcmeSoft:1",
		"COUNT(*) BETWEEN 2 AND 5":          "ZStart:2",
		"Company IN ('AcmeSoft', 'nope')":   "AcmeSoft:1",
		"SUM(Funding) NOT IN (1, 2000000)":  "ZStart:2",
		"COUNT(*) + 1 BETWEEN 1 AND 2":      "AcmeSoft:1",
		"Company IN ('ZStart') OR 1 > 2":    "ZStart:2",
		"NOT (Company BETWEEN 'A' AND 'B')": "ZStart:2",
	} {
		rows, _, err := queryLatest(c, "SELECT Company, COUNT(*) FROM Proposal GROUP BY Company HAVING "+having)
		if err != nil {
			t.Errorf("HAVING %s: %v", having, err)
			continue
		}
		got := ""
		for _, r := range rows {
			name, _ := r.Values[0].AsString()
			n, _ := r.Values[1].AsInt()
			got += fmt.Sprintf("%s:%d", name, n)
		}
		if got != want {
			t.Errorf("HAVING %s: rows %q, want %q", having, got, want)
		}
	}
	_, _, err := queryLatest(c, "SELECT Company FROM Proposal GROUP BY Company HAVING Company IN (SELECT Company FROM CompanyInfo)")
	if err == nil || !strings.Contains(err.Error(), "IN subqueries are only supported in WHERE and JOIN..ON") {
		t.Errorf("HAVING with an IN subquery: %v", err)
	}
	_, _, err = queryLatest(c, "SELECT Company FROM Proposal GROUP BY Company HAVING Funding BETWEEN 1 AND 2")
	if err == nil || !strings.Contains(err.Error(), "must appear in GROUP BY") {
		t.Errorf("HAVING over an ungrouped column: %v", err)
	}
}

func TestQueryGlobalAggregate(t *testing.T) {
	c := ventureCatalog(t)
	rows, _, err := queryLatest(c, "SELECT COUNT(*), AVG(Funding) FROM Proposal")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if n, _ := rows[0].Values[0].AsInt(); n != 3 {
		t.Errorf("count = %d", n)
	}
}

func TestQuerySetOps(t *testing.T) {
	c := ventureCatalog(t)
	rows, _, err := queryLatest(c, `
		SELECT Company FROM Proposal
		UNION
		SELECT Company FROM CompanyInfo`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("union rows = %d, want 2", len(rows))
	}
	rows, _, err = queryLatest(c, `
		SELECT Company FROM Proposal
		INTERSECT
		SELECT Company FROM CompanyInfo`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("intersect rows = %d", len(rows))
	}
	rows, _, err = queryLatest(c, `
		SELECT Company FROM Proposal WHERE Funding < 1000000
		EXCEPT
		SELECT Company FROM CompanyInfo WHERE Income > 1000000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("except rows = %d", len(rows))
	}
}

func TestQueryLikeInBetween(t *testing.T) {
	c := ventureCatalog(t)
	rows, _, err := queryLatest(c, "SELECT Company FROM Proposal WHERE Company LIKE 'z%'")
	if err != nil || len(rows) != 2 {
		t.Fatalf("LIKE rows = %d (%v)", len(rows), err)
	}
	rows, _, err = queryLatest(c, "SELECT Company FROM Proposal WHERE Proposal IN ('cloud', 'mobile')")
	if err != nil || len(rows) != 2 {
		t.Fatalf("IN rows = %d (%v)", len(rows), err)
	}
	rows, _, err = queryLatest(c, "SELECT Company FROM Proposal WHERE Funding BETWEEN 800000 AND 900000")
	if err != nil || len(rows) != 2 {
		t.Fatalf("BETWEEN rows = %d (%v)", len(rows), err)
	}
	rows, _, err = queryLatest(c, "SELECT Company FROM Proposal WHERE Funding NOT BETWEEN 800000 AND 900000")
	if err != nil || len(rows) != 1 {
		t.Fatalf("NOT BETWEEN rows = %d (%v)", len(rows), err)
	}
}

func TestQueryLimitOffset(t *testing.T) {
	c := ventureCatalog(t)
	rows, _, err := queryLatest(c, "SELECT Company FROM Proposal ORDER BY Funding LIMIT 2 OFFSET 1")
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows = %d (%v)", len(rows), err)
	}
	if name, _ := rows[0].Values[0].AsString(); name != "ZStart" {
		t.Errorf("first = %v", rows[0].Values[0])
	}
}

func TestQueryCrossJoin(t *testing.T) {
	c := ventureCatalog(t)
	rows, _, err := queryLatest(c, "SELECT Proposal.Company FROM Proposal CROSS JOIN CompanyInfo")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("cross join rows = %d, want 6", len(rows))
	}
}

func TestQueryNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	c := ventureCatalog(t)
	stmt := mustParse(t, "SELECT Proposal.Company FROM Proposal JOIN CompanyInfo ON Funding > Income")
	op, _, err := PlanDetailedAt(c, stmt, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := relation.RunAt(op, c.Version())
	if err != nil {
		t.Fatal(err)
	}
	// Funding values 2e6, 8e5, 9e5 vs incomes 1.2e5, 5e6: each funding
	// beats only ZStart's income.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestPlanErrors(t *testing.T) {
	c := ventureCatalog(t)
	bad := []string{
		"SELECT x FROM Proposal",                     // unknown column
		"SELECT Company FROM Nope",                   // unknown table
		"SELECT Company FROM Proposal WHERE Funding", // non-boolean predicate errors at run time
		"SELECT Company, COUNT(*) FROM Proposal",     // non-grouped column with aggregate
		"SELECT * FROM Proposal GROUP BY Company",    // star with group by
		"SELECT Company FROM Proposal UNION SELECT 1 FROM Proposal WHERE Funding < 0 UNION SELECT Company FROM Nope", // nested plan error
	}
	for _, q := range bad {
		if _, _, err := queryLatest(c, q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestQueryWhereAggregateRejected(t *testing.T) {
	c := ventureCatalog(t)
	if _, _, err := queryLatest(c, "SELECT Company FROM Proposal WHERE COUNT(*) > 1"); err == nil {
		t.Error("aggregate in WHERE should fail")
	}
}

func TestQueryDistinctProjectionLineage(t *testing.T) {
	c := ventureCatalog(t)
	rows, _, err := queryLatest(c, "SELECT DISTINCT Company FROM Proposal WHERE Funding < 1000000")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Candidate lineage p02 ∨ p03 = 0.58.
	if p := c.Snapshot().Confidence(rows[0]); math.Abs(p-0.58) > 1e-9 {
		t.Fatalf("candidate confidence = %v, want 0.58", p)
	}
}

func TestPropertyIndexedQueriesMatchUnindexed(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		build := func(withIndex bool) (*relation.Catalog, []string) {
			c := relation.NewCatalog()
			tab, _ := c.CreateTable("T", relation.NewSchema(
				relation.Column{Name: "k", Type: relation.TypeInt},
				relation.Column{Name: "v", Type: relation.TypeInt},
			))
			gen := rand.New(rand.NewSource(seed + 1))
			n := gen.Intn(30)
			for i := 0; i < n; i++ {
				tab.MustInsert(0.1+0.8*gen.Float64(), nil,
					relation.Int(int64(gen.Intn(4))), relation.Int(int64(i)))
			}
			if withIndex {
				if _, err := tab.CreateIndex("k"); err != nil {
					t.Fatal(err)
				}
			}
			key := rr.Intn(5)
			queries := []string{
				fmt.Sprintf(`SELECT v FROM T WHERE k = %d ORDER BY v`, key),
				fmt.Sprintf(`SELECT v FROM T WHERE k = %d AND v > 3 ORDER BY v`, key),
				fmt.Sprintf(`SELECT COUNT(*) FROM T WHERE k = %d`, key),
			}
			return c, queries
		}
		plainCat, queries := build(false)
		indexedCat, _ := build(true)
		for _, q := range queries {
			a, _, err := queryLatest(plainCat, q)
			if err != nil {
				return false
			}
			b, _, err := queryLatest(indexedCat, q)
			if err != nil {
				return false
			}
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].Key() != b[i].Key() {
					return false
				}
				if plainCat.Snapshot().Confidence(a[i]) != indexedCat.Snapshot().Confidence(b[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: r}); err != nil {
		t.Fatal(err)
	}
}
