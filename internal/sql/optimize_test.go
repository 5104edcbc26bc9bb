package sql

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pcqe/internal/relation"
)

// starTestCatalog builds a small star schema whose statement order is
// deliberately bad: the selective filter sits on the last-joined
// dimension.
func starTestCatalog(t *testing.T) *relation.Catalog {
	t.Helper()
	c := relation.NewCatalog()
	fact, err := c.CreateTable("fact", relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt},
		relation.Column{Name: "d1", Type: relation.TypeInt},
		relation.Column{Name: "d2", Type: relation.TypeInt},
		relation.Column{Name: "amount", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		fact.MustInsert(0.5+0.4*float64(i%2), nil,
			relation.Int(int64(i)), relation.Int(int64(i%6)),
			relation.Int(int64(i%5)), relation.Float(float64(i)*1.5))
	}
	for _, d := range []struct {
		name string
		n    int
	}{{"dim1", 6}, {"dim2", 5}} { // in order: lineage variables are numbered by insertion
		name, n := d.name, d.n
		dim, err := c.CreateTable(name, relation.NewSchema(
			relation.Column{Name: "k", Type: relation.TypeInt},
			relation.Column{Name: "attr", Type: relation.TypeInt},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			dim.MustInsert(0.9, nil, relation.Int(int64(i)), relation.Int(int64(i%3)))
		}
	}
	return c
}

// starIndexedCatalog is starTestCatalog with hash indexes on dim1.k
// and dim2.attr.
func starIndexedCatalog(t *testing.T) *relation.Catalog {
	t.Helper()
	cat := starTestCatalog(t)
	for _, spec := range [][2]string{{"dim1", "k"}, {"dim2", "attr"}} {
		tab, err := cat.Table(spec[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.CreateIndex(spec[1]); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// servingCatalog builds the serving benchmark's schema at 1/10 of its
// size with the same exact per-key counts — 10 orders per supplier,
// 1 000 items, 20 regions — and its two indexes, so every selectivity
// (and with it every plan choice) is the full-size one.
func servingCatalog(t *testing.T) *relation.Catalog {
	t.Helper()
	const suppliers, orders, items, regions = 2000, 20000, 1000, 20
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
	r := rand.New(rand.NewSource(1))
	name := func(i int) relation.Value { return relation.String_(fmt.Sprintf("S%05d", i)) }
	x := c.Begin()
	for i, reg := range r.Perm(suppliers) {
		x.MustInsert(sup, 0.05+0.9*r.Float64(), nil, name(i), relation.String_(fmt.Sprintf("R%02d", reg%regions)), relation.Float(1+4*r.Float64()))
	}
	by, it := r.Perm(orders), r.Perm(orders)
	for i := range by {
		x.MustInsert(ord, 0.05+0.9*r.Float64(), nil, name(by[i]%suppliers), relation.Int(int64(it[i]%items)), relation.Float(100*r.Float64()))
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	for tab, col := range map[*relation.Table]string{sup: "Name", ord: "Supplier"} {
		if _, err := tab.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// servingShapes are the five analytic_cold query shapes of the serving
// benchmark, plus improve_mix's DISTINCT-on-item.
const servingJoin = " FROM Suppliers JOIN Orders ON Suppliers.Name = Orders.Supplier WHERE "

var servingShapes = map[string]string{
	"distinct_join":   "SELECT DISTINCT Suppliers.Name" + servingJoin + "Amount > 93.00 AND Rating > 3.70",
	"item_join":       "SELECT Suppliers.Name, Orders.Amount" + servingJoin + "Item = 417",
	"distinct_item":   "SELECT DISTINCT Suppliers.Name" + servingJoin + "Item = 417",
	"supplier_join":   "SELECT Suppliers.Name, Orders.Item, Orders.Amount" + servingJoin + "Suppliers.Name = 'S00977'",
	"region_distinct": "SELECT DISTINCT Region FROM Suppliers WHERE Rating > 3.125",
	"region_shared":   "SELECT DISTINCT Region" + servingJoin + "Item >= 300 AND Item < 308",
}

// servingVariants are point_hot's lookup and three rewordings of
// item_join — an output alias in ORDER BY, a _confidence conjunct, a
// derived table — that must plan as item_join does: the Item filter
// inside the Orders leaf.
var servingVariants = map[string]string{
	"point":              "SELECT Name, Region, Rating FROM Suppliers WHERE Name = 'S00977'",
	"item_join_alias":    "SELECT Suppliers.Name AS n, Orders.Amount" + servingJoin + "Item = 417 ORDER BY n",
	"item_join_conf":     "SELECT Suppliers.Name, Orders.Amount" + servingJoin + "Item = 417 AND _confidence > 0.2",
	"item_join_subquery": "SELECT s.Name, Orders.Amount FROM (SELECT Name FROM Suppliers WHERE Rating > 4.5) AS s JOIN Orders ON s.Name = Orders.Supplier WHERE Item = 417",
}

// allServingShapes is servingShapes and servingVariants together.
func allServingShapes() map[string]string {
	all := map[string]string{}
	for _, m := range []map[string]string{servingShapes, servingVariants} {
		for shape, q := range m {
			all[shape] = q
		}
	}
	return all
}

// TestServingShapePlans pins what the planner does with the benchmark's
// shapes: which join operator it prices cheapest, that the leaf carries
// filter and pruning itself (no Select or ColumnMap stacked on a scan;
// the one Select allowed is the _confidence conjunct above
// AttachConfidence), and that an interval on one column is estimated as
// an interval.
func TestServingShapePlans(t *testing.T) {
	cat := servingCatalog(t)
	plans := map[string]string{}
	for shape, q := range allServingShapes() {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		op, info, err := PlanDetailedAt(cat, stmt, cat.Version())
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		plan := relation.ExplainAnnotated(op, info.Notes)
		plans[shape] = plan
		lines := strings.Split(plan, "\n")
		for i, line := range lines {
			next := ""
			if i+1 < len(lines) {
				next = lines[i+1]
			}
			stacked := strings.Contains(line, "ColumnMap") && strings.Contains(next, "Scan ")
			if strings.Contains(line, "Select") && !strings.Contains(next, "AttachConfidence") || stacked {
				t.Errorf("%s: filter or pruning left outside the leaf:\n%s", shape, plan)
			}
		}
	}
	for shape, want := range map[string][]string{
		"supplier_join": {"IndexJoin (Suppliers.Name = Orders.Supplier) probe Orders", "IndexScan Suppliers (Name = S00977) cols [Name]"},
		"item_join":     {"IndexJoin (Orders.Supplier = Suppliers.Name) probe Suppliers cols [Name]", "Scan Orders filter (Orders.Item = 417)"},
		"distinct_item": {"IndexJoin (Orders.Supplier = Suppliers.Name) probe Suppliers cols [Name]", "Scan Orders filter (Orders.Item = 417) cols [Supplier, Item]"},
		"distinct_join": {"GroupJoin DISTINCT [Suppliers.Name] (Orders.Supplier = Suppliers.Name)", "Scan Orders filter (Orders.Amount > 93) cols [Supplier, Amount]", "Scan Suppliers filter (Suppliers.Rating > 3.7) cols [Name, Rating]"},
		"region_shared": {"IndexJoin (Orders.Supplier = Suppliers.Name) probe Suppliers cols [Name, Region]"},

		"point":              {"IndexScan Suppliers (Name = S00977) -- "},
		"region_distinct":    {"Scan Suppliers filter (Suppliers.Rating > 3.125) cols [Region, Rating]"},
		"item_join_alias":    {"IndexJoin (Orders.Supplier = Suppliers.Name) probe Suppliers cols [Name]", "Scan Orders filter (Orders.Item = 417)"},
		"item_join_conf":     {"IndexJoin (Orders.Supplier = Suppliers.Name) probe Suppliers cols [Name]", "Scan Orders filter (Orders.Item = 417)", "Select ((_confidence > 0.2))\n   └─ AttachConfidence"},
		"item_join_subquery": {"Scan Orders filter (Orders.Item = 417)", "Scan Suppliers filter (Suppliers.Rating > 4.5) cols [Name, Rating]"},
	} {
		for _, w := range want {
			if !strings.Contains(plans[shape], w) {
				t.Errorf("%s: plan lacks %q:\n%s", shape, w, plans[shape])
			}
		}
	}

	// Opposing bounds on one column are one interval, not two independent
	// half-lines: the Orders leaf estimate stays within 2× of the count.
	for _, w := range []int{4, 8} {
		where := fmt.Sprintf("Item >= 300 AND Item < %d", 300+w)
		rows, _, err := queryLatest(cat, "SELECT Item FROM Orders WHERE "+where)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := Parse("SELECT DISTINCT Region" + servingJoin + where)
		if err != nil {
			t.Fatal(err)
		}
		op, info, err := PlanDetailedAt(cat, stmt, cat.Version())
		if err != nil {
			t.Fatal(err)
		}
		est := -1.0
		for _, line := range strings.Split(relation.ExplainAnnotated(op, info.Notes), "\n") {
			if i := strings.Index(line, "rows≈"); i >= 0 && strings.Contains(line, "Scan Orders") {
				fmt.Sscanf(line[i+len("rows≈"):], "%f", &est)
			}
		}
		if actual := float64(len(rows)); est < actual/2 || est > 2*actual {
			t.Errorf("window of %d items: Orders leaf estimated at %.0f rows, actual %.0f", w, est, actual)
		}
	}
}

// ventureQueries and starQueries are the planner differential's
// hand-written corpora (TestPlannerMatchesReference), over
// ventureCatalog and starTestCatalog.
var ventureQueries = []string{
	`SELECT DISTINCT CompanyInfo.Company, Income
	   FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company
	  WHERE Funding < 1000000`,
	`SELECT Company, Funding FROM Proposal WHERE Funding > 900000 ORDER BY Funding DESC`,
	`SELECT p.Company, COUNT(*), SUM(Funding)
	   FROM Proposal p JOIN CompanyInfo c ON p.Company = c.Company
	  GROUP BY p.Company HAVING COUNT(*) > 0`,
	`SELECT a.Company FROM Proposal a JOIN Proposal b ON a.Company = b.Company
	  WHERE a.Proposal <> b.Proposal`,
	`SELECT Company FROM Proposal WHERE Company LIKE 'Z%' OR Funding BETWEEN 1 AND 900000`,
	`SELECT CompanyInfo.Company FROM CompanyInfo, Proposal
	  WHERE CompanyInfo.Company = Proposal.Company AND Income > 100000`,
	`SELECT Company FROM Proposal UNION SELECT Company FROM CompanyInfo`,
	`SELECT Income FROM CompanyInfo WHERE Company IN (SELECT Company FROM Proposal)`,
	`SELECT Company FROM Proposal WHERE _confidence > 0.35`,
	`SELECT Company, Income FROM CompanyInfo ORDER BY Income LIMIT 1`,
	// The corners the join planner is total over: HAVING past
	// comparisons, ORDER BY on a column the projection drops, a
	// constant conjunct over a cross join, _confidence over a
	// self-join, a derived table in a join.
	`SELECT Company, COUNT(*) FROM Proposal GROUP BY Company HAVING Company LIKE 'Z%'`,
	`SELECT Company, COUNT(*) FROM Proposal GROUP BY Company HAVING COUNT(*) BETWEEN 2 AND 5`,
	`SELECT Company, COUNT(*) FROM Proposal GROUP BY Company HAVING Company IN ('AcmeSoft', 'nope')`,
	`SELECT Company FROM Proposal ORDER BY Funding DESC`,
	`SELECT Proposal.Company, Income FROM Proposal, CompanyInfo WHERE 1 = 1 AND Income > 100000`,
	`SELECT a.Proposal, b.Proposal, _confidence FROM Proposal a JOIN Proposal b ON a.Company = b.Company
	  WHERE a.Proposal < b.Proposal AND _confidence > 0.1`,
	`SELECT t.Company, Income FROM (SELECT Company, SUM(Funding) AS total FROM Proposal GROUP BY Company) t
	   JOIN CompanyInfo ON t.Company = CompanyInfo.Company WHERE t.total > 1000000`,
}

var starQueries = []string{
	`SELECT fact.amount, dim1.attr, dim2.attr
	   FROM fact JOIN dim1 ON fact.d1 = dim1.k JOIN dim2 ON fact.d2 = dim2.k
	  WHERE dim2.attr = 1`,
	`SELECT dim1.attr, SUM(fact.amount)
	   FROM fact JOIN dim1 ON fact.d1 = dim1.k JOIN dim2 ON fact.d2 = dim2.k
	  WHERE dim2.attr = 2 AND fact.amount > 10
	  GROUP BY dim1.attr`,
	`SELECT fact.id FROM fact JOIN dim1 ON fact.d1 = dim1.k
	  WHERE dim1.attr = 0 AND fact.id < 30 ORDER BY fact.id`,
	`SELECT * FROM dim1 JOIN dim2 ON dim1.attr = dim2.attr WHERE dim1.k > dim2.k`,
}

// corpusCatalog holds the tables the fuzz corpora name: t, u and v with
// the columns their seeds read, beside the venture tables of FuzzExec.
func corpusCatalog(t *testing.T) *relation.Catalog {
	t.Helper()
	cat := ventureCatalog(t)
	_, err := ExecScript(cat, `
		CREATE TABLE t (a INT, b INT, x INT, y REAL, name TEXT, "count" INT);
		CREATE TABLE u (a INT);
		CREATE TABLE v (a INT);
		INSERT INTO t VALUES (1, 10, 1, 0.5, 'ab', 7), (2, 20, 2, NULL, 'b', 8), (2, 30, 3, 1.5, 'ac', 9) WITH CONFIDENCE 0.6;
		INSERT INTO t VALUES (11, 40, 1, 2.5, 'a', 7) WITH CONFIDENCE 0.3;
		INSERT INTO u VALUES (1), (2), (3) WITH CONFIDENCE 0.8;
		INSERT INTO v VALUES (2), (3) WITH CONFIDENCE 0.7;
		CREATE INDEX ON u (a)`)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// corpusSelects returns the seeds of FuzzParse and FuzzExec and the
// inputs committed under testdata/fuzz/FuzzParse.
func corpusSelects(t *testing.T) []string {
	t.Helper()
	out := append(append([]string{}, fuzzParseSeeds...), fuzzExecSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if lit, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// TestCostBasedReordersStarJoin checks the optimizer actually changes
// the join order (filtered dimension first) and surfaces its estimates
// in EXPLAIN.
func TestCostBasedReordersStarJoin(t *testing.T) {
	cat := starTestCatalog(t)
	res, err := Exec(cat, `EXPLAIN SELECT fact.amount FROM fact
		JOIN dim1 ON fact.d1 = dim1.k JOIN dim2 ON fact.d2 = dim2.k
		WHERE dim2.attr = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Message != "plan (lineage read-once)" {
		t.Fatalf("message = %q", res.Message)
	}
	// Statement order joins fact with dim1 first; the filtered dim2 (two
	// of its five rows) must be in the first join instead.
	if d1, d2 := strings.Index(res.Plan, "Scan dim1"), strings.Index(res.Plan, "Scan dim2"); d2 < 0 || d1 < d2 {
		t.Errorf("join order not changed: dim2 should be joined before dim1:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "HashJoin") {
		t.Errorf("plan should use hash joins:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "rows≈") || !strings.Contains(res.Plan, "cost≈") {
		t.Errorf("plan lacks cardinality/cost annotations:\n%s", res.Plan)
	}
	// The selective dim2 filter must be applied before the top join:
	// the Select on dim2.attr appears below a join, not above all of
	// them (statement order would filter last).
	firstJoin := strings.Index(res.Plan, "HashJoin")
	filter := strings.Index(res.Plan, "Select")
	if filter >= 0 && firstJoin >= 0 && filter < firstJoin {
		t.Errorf("filter should be pushed below the joins:\n%s", res.Plan)
	}
}

// TestCanonicalCaseSensitivity is the regression for the GROUP BY
// matcher: identifiers fold case, literals must not ('ABC' and 'abc'
// are different values).
func TestCanonicalCaseSensitivity(t *testing.T) {
	upperIdent := &Ident{Qualifier: "T", Name: "Company"}
	lowerIdent := &Ident{Qualifier: "t", Name: "company"}
	if canonical(upperIdent) != canonical(lowerIdent) {
		t.Errorf("identifier matching must be case-insensitive: %q vs %q",
			canonical(upperIdent), canonical(lowerIdent))
	}
	upperLit := &BinaryExpr{Op: "=", Left: &Ident{Name: "c"}, Right: &Lit{Kind: LitString, Str: "ABC"}}
	lowerLit := &BinaryExpr{Op: "=", Left: &Ident{Name: "c"}, Right: &Lit{Kind: LitString, Str: "abc"}}
	if canonical(upperLit) == canonical(lowerLit) {
		t.Errorf("string literals must keep their case: both render %q", canonical(upperLit))
	}
	upperLike := &LikeExpr{Child: &Ident{Name: "c"}, Pattern: "Z%"}
	lowerLike := &LikeExpr{Child: &Ident{Name: "c"}, Pattern: "z%"}
	if canonical(upperLike) == canonical(lowerLike) {
		t.Errorf("LIKE patterns must keep their case: both render %q", canonical(upperLike))
	}

	// Behavioral form: a select item matches its GROUP BY key across
	// identifier case, but a literal of different case must not match.
	cat := ventureCatalog(t)
	if _, _, err := queryLatest(cat, `SELECT COMPANY FROM Proposal GROUP BY company`); err != nil {
		t.Errorf("identifier case-fold in GROUP BY: %v", err)
	}
	if _, _, err := queryLatest(cat, `SELECT Company = 'ZStart' FROM Proposal GROUP BY Company = 'ZStart'`); err != nil {
		t.Errorf("matching literal expression in GROUP BY: %v", err)
	}
	// Before the fix, canonical() lowercased the whole rendering, so the
	// select item silently bound to the differently-cased group key and
	// returned the wrong comparison. Now it must fail validation.
	if _, _, err := queryLatest(cat, `SELECT Company = 'ZStart' FROM Proposal GROUP BY Company = 'zstart'`); err == nil {
		t.Error("Company = 'ZStart' must not match GROUP BY Company = 'zstart'")
	}
}

// TestEquiJoinKeys holds the planner's equi-join classification: a
// conjunct "x = y" over one column of each of two relations becomes a
// hash key when their types hash alike; anything else stays a residual
// predicate of the join.
func TestEquiJoinKeys(t *testing.T) {
	rels := []*planRel{
		{schema: relation.NewSchema(
			relation.Column{Table: "l", Name: "a", Type: relation.TypeInt},
			relation.Column{Table: "l", Name: "s", Type: relation.TypeString},
		)},
		{schema: relation.NewSchema(
			relation.Column{Table: "r", Name: "b", Type: relation.TypeInt},
			relation.Column{Table: "r", Name: "f", Type: relation.TypeFloat},
		)},
	}
	ident := func(name string) *Ident { return &Ident{Name: name} }
	eq := func(l, r ExprNode) ExprNode { return &BinaryExpr{Op: "=", Left: l, Right: r} }
	classify := func(e ExprNode) conjunct {
		c := conjunct{expr: e}
		classifyEquiConjunct(&c, rels)
		return c
	}

	t.Run("direct", func(t *testing.T) {
		c := classify(eq(ident("a"), ident("b")))
		if !c.eq || c.eqL != (colOrigin{0, 0}) || c.eqR != (colOrigin{1, 0}) {
			t.Fatalf("%+v", c)
		}
	})
	t.Run("reversed-operands", func(t *testing.T) {
		// b = a keys the same columns, sides as written.
		c := classify(eq(ident("b"), ident("a")))
		if !c.eq || c.eqL != (colOrigin{1, 0}) || c.eqR != (colOrigin{0, 0}) {
			t.Fatalf("%+v", c)
		}
	})
	t.Run("numeric-cross-type", func(t *testing.T) {
		// INT = REAL hashes consistently (Value.Key folds integral
		// floats onto int keys).
		if !classify(eq(ident("a"), ident("f"))).eq {
			t.Fatal("int=float should be hash-joinable")
		}
	})
	t.Run("type-mismatch", func(t *testing.T) {
		// TEXT = INT must stay a residual so it raises the same
		// comparison error a WHERE clause would.
		if classify(eq(ident("s"), ident("b"))).eq {
			t.Fatal("string=int must not be hash-joinable")
		}
	})
	t.Run("mixed-residual", func(t *testing.T) {
		// An ON clause "a = b AND a < b" is two conjuncts: the equality
		// keys the join, the comparison stays its residual.
		on := &BinaryExpr{Op: "AND",
			Left:  eq(ident("a"), ident("b")),
			Right: &BinaryExpr{Op: "<", Left: ident("a"), Right: ident("b")},
		}
		conjs := flattenAnd(on)
		if len(conjs) != 2 || !classify(conjs[0]).eq || classify(conjs[1]).eq {
			t.Fatalf("conjuncts %v: want one key and one residual", conjs)
		}
	})
	t.Run("constant-operand", func(t *testing.T) {
		if classify(eq(ident("a"), &Lit{Kind: LitInt, Int: 1})).eq {
			t.Fatal("ident=literal is not a join key")
		}
	})
	t.Run("unresolvable", func(t *testing.T) {
		if classify(eq(ident("a"), ident("nope"))).eq {
			t.Fatal("unresolvable column must reject")
		}
	})
	t.Run("same-relation", func(t *testing.T) {
		if classify(eq(ident("a"), &Ident{Qualifier: "l", Name: "a"})).eq {
			t.Fatal("a column equal to its own relation's column is a filter, not a join key")
		}
	})
}
