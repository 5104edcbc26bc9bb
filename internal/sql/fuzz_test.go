package sql

import (
	"sort"
	"strings"
	"testing"

	"pcqe/internal/relation"
)

// The seed corpora of FuzzParse and FuzzExec, shared with the renderer
// pins and the planner differential (corpusSelects).
var fuzzParseSeeds = []string{
	"SELECT a FROM t",
	"SELECT DISTINCT a, b AS x FROM t JOIN u ON t.a = u.a WHERE a < 10 ORDER BY a DESC LIMIT 3 OFFSET 1",
	"SELECT COUNT(*), SUM(x) FROM t GROUP BY a HAVING COUNT(*) > 1",
	"SELECT a FROM t UNION SELECT a FROM u INTERSECT SELECT a FROM v",
	"SELECT a FROM (SELECT a FROM t) s WHERE a IN (SELECT a FROM u)",
	"SELECT a FROM t WHERE x BETWEEN 1 AND 2 OR name LIKE 'a%' AND y IS NOT NULL",
	"SELECT 'it''s', 1.5e-3, -2, TRUE, NULL FROM t",
	"SELECT \"count\" FROM \"t\"",
	"SELECT a FROM t -- comment\nWHERE a = 1;",
	"SELECT",
	"SELEC a FROM t",
	"((((",
	"'unterminated",
	"SELECT a FROM t WHERE a = = 1",
}

var fuzzExecSeeds = []string{
	"SELECT Company FROM Proposal WHERE Funding < 1000000",
	"INSERT INTO Proposal VALUES ('x', 'y', 1.0)",
	"UPDATE Proposal SET Funding = Funding * 2",
	"DELETE FROM Proposal WHERE Company = 'ZStart'",
	"CREATE TABLE t2 (a INT)",
	"SELECT * FROM Proposal CROSS JOIN CompanyInfo",
}

// FuzzParse asserts the parser never panics and that anything it accepts
// renders back to SQL that parses again (closure under canonicalization).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		rendered := stmt.SQL()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", input, rendered, err)
		}
		if again.SQL() != rendered {
			t.Fatalf("canonical form unstable: %q -> %q", rendered, again.SQL())
		}
	})
}

// FuzzParseStatement covers the DDL/DML grammar the same way.
func FuzzParseStatement(f *testing.F) {
	seeds := []string{
		"CREATE TABLE t (a INTEGER, b TEXT)",
		"CREATE INDEX ON t (a)",
		"DROP TABLE t",
		"INSERT INTO t (a) VALUES (1), (2) WITH CONFIDENCE 0.5 COST 10",
		"UPDATE t SET a = a + 1 WHERE a > 0",
		"DELETE FROM t WHERE a IS NULL",
		"EXPLAIN SELECT a FROM t",
		"INSERT INTO",
		"UPDATE SET",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := ParseStatement(input)
		if err != nil {
			return
		}
		rendered := stmt.SQL()
		if _, err := ParseStatement(rendered); err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", input, rendered, err)
		}
	})
}

// FuzzExec runs arbitrary statements against a small catalog: no panics,
// and the catalog stays structurally sound.
func FuzzExec(f *testing.F) {
	for _, s := range fuzzExecSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		cat := relation.NewCatalog()
		proposal, _ := cat.CreateTable("Proposal", relation.NewSchema(
			relation.Column{Name: "Company", Type: relation.TypeString},
			relation.Column{Name: "Proposal", Type: relation.TypeString},
			relation.Column{Name: "Funding", Type: relation.TypeFloat},
		))
		info, _ := cat.CreateTable("CompanyInfo", relation.NewSchema(
			relation.Column{Name: "Company", Type: relation.TypeString},
			relation.Column{Name: "Income", Type: relation.TypeFloat},
		))
		proposal.MustInsert(0.5, nil, relation.String_("ZStart"), relation.String_("p"), relation.Float(1))
		info.MustInsert(0.5, nil, relation.String_("ZStart"), relation.Float(2))
		res, err := Exec(cat, input)
		if err != nil {
			return
		}
		// Whatever ran must leave a coherent catalog: every row in every
		// table still matches its schema arity.
		for _, name := range cat.TableNames() {
			tab, err := cat.Table(name)
			if err != nil {
				t.Fatalf("table %q vanished: %v", name, err)
			}
			for _, row := range tab.RowsAt(cat.Snapshot()) {
				if len(row.Values()) != tab.Schema().Len() {
					t.Fatalf("table %q row arity %d != schema %d", name, len(row.Values()), tab.Schema().Len())
				}
				if row.Confidence() < 0 || row.Confidence() > 1 {
					t.Fatalf("table %q row confidence %v out of range", name, row.Confidence())
				}
			}
		}
		_ = res
	})
}

// FuzzFilterPushdown is the compiled-predicate differential at the SQL
// surface: whatever WHERE clause parses and compiles, the base-table
// leaf evaluating it on stored rows (compiled, index-probing when it
// can) returns the rows — or the error — of the tree walk over a bare
// scan. Seeds are the predicates of the other fuzz targets' corpora plus
// the typed-closure edge cases (NULL cells, INTEGER against REAL, TEXT
// against a number).
func FuzzFilterPushdown(f *testing.F) {
	for _, s := range []string{
		"a < 10", "x BETWEEN 1 AND 2 OR name LIKE 'a%' AND y IS NOT NULL", "a = 1", "a = = 1",
		"Funding < 1000000", "Company = 'ZStart'", "a IS NULL", "a > 0", "a + 1 > x",
		"a = 2.0 AND Funding >= 2", "2.5 > a AND name <> 'b'", "name > 3", "name = 'a' AND a IN (1, 2)",
		"a = 1 AND (x > 1 AND y < 3) AND name LIKE '%'", "NOT a = 1", "a", "NULL", "a = NULL AND name < 1",
	} {
		f.Add(s)
	}
	cat := relation.NewCatalog()
	tab, err := cat.CreateTable("t", relation.NewSchema(
		relation.Column{Name: "a", Type: relation.TypeInt}, relation.Column{Name: "x", Type: relation.TypeInt},
		relation.Column{Name: "y", Type: relation.TypeFloat}, relation.Column{Name: "name", Type: relation.TypeString},
		relation.Column{Name: "Company", Type: relation.TypeString}, relation.Column{Name: "Funding", Type: relation.TypeFloat},
	))
	if err != nil {
		f.Fatal(err)
	}
	cells := [][]relation.Value{
		{relation.Null(), relation.Int(1), relation.Int(2)}, {relation.Null(), relation.Int(0), relation.Int(2)},
		{relation.Null(), relation.Float(1.5), relation.Float(2)}, {relation.Null(), relation.String_("a"), relation.String_("b")},
		{relation.String_("ZStart"), relation.Null()}, {relation.Float(2), relation.Float(1e6)},
	}
	x := cat.Begin()
	row := make([]relation.Value, len(cells))
	var fill func(c int)
	fill = func(c int) {
		if c == len(cells) {
			x.MustInsert(tab, 0.5, nil, append([]relation.Value{}, row...)...)
			return
		}
		for _, v := range cells[c] {
			row[c] = v
			fill(c + 1)
		}
	}
	fill(0)
	if _, err := x.Commit(); err != nil {
		f.Fatal(err)
	}
	if _, err := tab.CreateIndex("a"); err != nil {
		f.Fatal(err)
	}
	all, err := relation.RunAt(tab.Scan(), cat.Version())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, where string) {
		stmt, err := Parse("SELECT a FROM t WHERE " + where)
		if err != nil || stmt.Where == nil || len(stmt.Joins) > 0 || stmt.From.Name != "t" {
			return
		}
		pred, err := compileExpr(stmt.Where, tab.Schema())
		if err != nil {
			return // subqueries, aggregates, unknown columns
		}
		var want []string
		var werr error
		for _, tu := range all {
			ok, err := relation.EvalBool(pred, tu)
			if err != nil {
				want, werr = nil, err
				break
			}
			if ok {
				want = append(want, tu.Key()+tu.Lineage.String())
			}
		}
		rows, gerr := relation.RunAt(relation.Filter(tab.Scan(), pred), cat.Version())
		got := make([]string, len(rows))
		for i, tu := range rows {
			got[i] = tu.Key() + tu.Lineage.String()
		}
		if relation.ProbesIndex(relation.Filter(tab.Scan(), pred)) {
			// An index probe reads one bucket: rows it skips cannot raise
			// the errors a full scan meets, and arrive in bucket order.
			if werr != nil {
				return
			}
			sort.Strings(got)
			sort.Strings(want)
		}
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) || strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("WHERE %s: leaf %d rows (%v), tree walk %d rows (%v)", where, len(got), gerr, len(want), werr)
		}
	})
}
