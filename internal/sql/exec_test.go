package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pcqe/internal/relation"
)

func execAll(t *testing.T, cat *relation.Catalog, stmts ...string) *Result {
	t.Helper()
	var last *Result
	for _, s := range stmts {
		res, err := Exec(cat, s)
		if err != nil {
			t.Fatalf("Exec(%q): %v", s, err)
		}
		last = res
	}
	return last
}

func TestCreateInsertSelect(t *testing.T) {
	cat := relation.NewCatalog()
	res := execAll(t, cat,
		`CREATE TABLE Emp (Name TEXT, Dept TEXT, Salary REAL)`,
		`INSERT INTO Emp VALUES ('ana', 'eng', 100.0), ('bo', 'eng', 90.0) WITH CONFIDENCE 0.8 COST 25`,
		`INSERT INTO Emp (Salary, Name, Dept) VALUES (80.0, 'cy', 'ops')`,
		`SELECT Name FROM Emp WHERE Salary >= 90 ORDER BY Name`,
	)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if name, _ := res.Rows[0].Values[0].AsString(); name != "ana" {
		t.Errorf("first = %v", res.Rows[0].Values[0])
	}
	// Confidence and cost landed on the rows.
	tab, _ := cat.Table("Emp")
	rows := tab.RowsAt(cat.Snapshot())
	if rows[0].Confidence() != 0.8 || rows[0].Cost() == nil {
		t.Errorf("row 0 confidence/cost = %v/%v", rows[0].Confidence(), rows[0].Cost())
	}
	if rows[2].Confidence() != 1 || rows[2].Cost() != nil {
		t.Errorf("row 2 defaults = %v/%v", rows[2].Confidence(), rows[2].Cost())
	}
}

func TestCreateTableTypes(t *testing.T) {
	cat := relation.NewCatalog()
	execAll(t, cat, `CREATE TABLE T (a INT, b INTEGER, c FLOAT, d DOUBLE, e REAL, f TEXT, g VARCHAR, h STRING, i BOOL, j BOOLEAN)`)
	tab, _ := cat.Table("T")
	want := []relation.Type{
		relation.TypeInt, relation.TypeInt,
		relation.TypeFloat, relation.TypeFloat, relation.TypeFloat,
		relation.TypeString, relation.TypeString, relation.TypeString,
		relation.TypeBool, relation.TypeBool,
	}
	for i, w := range want {
		if got := tab.Schema().Columns[i].Type; got != w {
			t.Errorf("column %d type = %v, want %v", i, got, w)
		}
	}
}

func TestDropTable(t *testing.T) {
	cat := relation.NewCatalog()
	execAll(t, cat, `CREATE TABLE T (a INT)`, `DROP TABLE T`)
	if _, err := cat.Table("T"); err == nil {
		t.Fatal("table should be gone")
	}
	if _, err := Exec(cat, `DROP TABLE T`); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestDeleteStatement(t *testing.T) {
	cat := relation.NewCatalog()
	res := execAll(t, cat,
		`CREATE TABLE T (a INT)`,
		`INSERT INTO T VALUES (1), (2), (3)`,
		`DELETE FROM T WHERE a < 3`,
	)
	if res.Affected != 2 {
		t.Fatalf("deleted = %d", res.Affected)
	}
	sel := execAll(t, cat, `SELECT a FROM T`)
	if len(sel.Rows) != 1 {
		t.Fatalf("remaining = %d", len(sel.Rows))
	}
	// DELETE without WHERE clears the table.
	res = execAll(t, cat, `DELETE FROM T`)
	if res.Affected != 1 {
		t.Fatalf("deleted = %d", res.Affected)
	}
}

func TestDeleteZeroesWithdrawnConfidence(t *testing.T) {
	cat := relation.NewCatalog()
	execAll(t, cat, `CREATE TABLE T (a INT)`,
		`INSERT INTO T VALUES (1) WITH CONFIDENCE 0.9`)
	tab, _ := cat.Table("T")
	row := tab.RowsAt(cat.Snapshot())[0]
	execAll(t, cat, `DELETE FROM T`)
	// Old lineage referencing the deleted row now evaluates to 0.
	if got := cat.Snapshot().ProbOf(row.Var()); got != 0 {
		t.Fatalf("withdrawn row confidence = %v", got)
	}
}

func TestUpdateStatement(t *testing.T) {
	cat := relation.NewCatalog()
	res := execAll(t, cat,
		`CREATE TABLE T (a INT, b REAL)`,
		`INSERT INTO T VALUES (1, 10.0), (2, 20.0)`,
		`UPDATE T SET b = b * 2, a = a + 10 WHERE a = 1`,
	)
	if res.Affected != 1 {
		t.Fatalf("updated = %d", res.Affected)
	}
	sel := execAll(t, cat, `SELECT a, b FROM T ORDER BY a`)
	if a, _ := sel.Rows[0].Values[0].AsInt(); a != 2 {
		t.Errorf("untouched row changed: %v", sel.Rows[0])
	}
	if a, _ := sel.Rows[1].Values[0].AsInt(); a != 11 {
		t.Errorf("updated a = %v", sel.Rows[1].Values[0])
	}
	if b, _ := sel.Rows[1].Values[1].AsFloat(); b != 20 {
		t.Errorf("updated b = %v (assignments must read the pre-update image)", sel.Rows[1].Values[1])
	}
}

func TestUpdateConfidencePseudoColumn(t *testing.T) {
	cat := relation.NewCatalog()
	execAll(t, cat,
		`CREATE TABLE T (a INT)`,
		`INSERT INTO T VALUES (1) WITH CONFIDENCE 0.4`,
		`UPDATE T SET _confidence = 0.7 WHERE a = 1`,
	)
	tab, _ := cat.Table("T")
	if got := tab.RowsAt(cat.Snapshot())[0].Confidence(); got != 0.7 {
		t.Fatalf("confidence = %v", got)
	}
	// Out-of-range confidence errors.
	if _, err := Exec(cat, `UPDATE T SET _confidence = 1.5`); err == nil {
		t.Fatal("confidence > MaxConf should fail")
	}
}

func TestExplainStatement(t *testing.T) {
	cat := ventureCatalog(t)
	res := execAll(t, cat, `EXPLAIN SELECT DISTINCT CompanyInfo.Company
		FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company
		WHERE Funding < 1000000`)
	for _, want := range []string{"GroupJoin DISTINCT [CompanyInfo.Company] (CompanyInfo.Company = Proposal.Company)", "Scan Proposal filter (Proposal.Funding < 1000000)", "Scan CompanyInfo cols [Company]"} {
		if !strings.Contains(res.Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, res.Plan)
		}
	}
}

func TestFromSubquery(t *testing.T) {
	cat := ventureCatalog(t)
	rows, schema, err := queryLatest(cat, `
		SELECT t.Company, t.total
		FROM (SELECT Company, SUM(Funding) AS total FROM Proposal GROUP BY Company) t
		WHERE t.total > 1000000
		ORDER BY t.total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if schema.Columns[0].Name != "Company" || schema.Columns[1].Name != "total" {
		t.Errorf("output schema = %v", schema)
	}
	if name, _ := rows[0].Values[0].AsString(); name != "AcmeSoft" {
		t.Errorf("first = %v", rows[0].Values[0])
	}
}

func TestFromSubqueryRequiresAlias(t *testing.T) {
	if _, err := Parse(`SELECT a FROM (SELECT a FROM t)`); err == nil {
		t.Fatal("alias should be mandatory")
	}
}

func TestFromSubqueryLineagePropagates(t *testing.T) {
	cat := ventureCatalog(t)
	rows, _, err := queryLatest(cat, `
		SELECT d.Company FROM (SELECT DISTINCT Company FROM Proposal WHERE Funding < 1000000) d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Candidate lineage (p02 ∨ p03) survives the derived table.
	if p := cat.Snapshot().Confidence(rows[0]); math.Abs(p-0.58) > 1e-9 {
		t.Fatalf("confidence = %v, want 0.58", p)
	}
}

func TestInSubquery(t *testing.T) {
	cat := ventureCatalog(t)
	rows, _, err := queryLatest(cat, `
		SELECT Company, Income FROM CompanyInfo
		WHERE Company IN (SELECT Company FROM Proposal WHERE Funding < 1000000)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if name, _ := rows[0].Values[0].AsString(); name != "ZStart" {
		t.Errorf("company = %v", rows[0].Values[0])
	}
	// NOT IN.
	rows, _, err = queryLatest(cat, `
		SELECT Company FROM CompanyInfo
		WHERE Company NOT IN (SELECT Company FROM Proposal WHERE Funding < 1000000)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("NOT IN rows = %d", len(rows))
	}
	if name, _ := rows[0].Values[0].AsString(); name != "AcmeSoft" {
		t.Errorf("company = %v", rows[0].Values[0])
	}
}

func TestInSubqueryErrors(t *testing.T) {
	cat := ventureCatalog(t)
	// Two columns.
	if _, _, err := queryLatest(cat, `
		SELECT Company FROM CompanyInfo
		WHERE Company IN (SELECT Company, Funding FROM Proposal)`); err == nil {
		t.Fatal("two-column subquery should fail")
	}
	// Subquery in projection is unsupported.
	if _, _, err := queryLatest(cat, `
		SELECT Company IN (SELECT Company FROM Proposal) FROM CompanyInfo`); err == nil {
		t.Fatal("IN subquery in projection should fail")
	}
}

func TestExecScript(t *testing.T) {
	cat := relation.NewCatalog()
	results, err := ExecScript(cat, `
		CREATE TABLE T (a INT);
		INSERT INTO T VALUES (1), (2);
		SELECT a FROM T ORDER BY a DESC;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if len(results[2].Rows) != 2 {
		t.Fatalf("select rows = %d", len(results[2].Rows))
	}
	// Errors carry the statement index.
	_, err = ExecScript(cat, `SELECT a FROM T; SELECT nope FROM T`)
	if err == nil || !strings.Contains(err.Error(), "statement 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseStatementErrors(t *testing.T) {
	bad := []string{
		"CREATE T (a INT)",
		"CREATE TABLE (a INT)",
		"CREATE TABLE T (a)",
		"CREATE TABLE T (a INT",
		"DROP T",
		"INSERT T VALUES (1)",
		"INSERT INTO T (1)",
		"INSERT INTO T VALUES 1",
		"INSERT INTO T VALUES (1) WITH 1",
		"DELETE T",
		"UPDATE T a = 1",
		"UPDATE T SET = 1",
		"EXPLAIN DROP TABLE T",
		"VALUES (1)",
		"42",
	}
	for _, q := range bad {
		if _, err := ParseStatement(q); err == nil {
			t.Errorf("ParseStatement(%q) should fail", q)
		}
	}
}

func TestStatementSQLRoundTrip(t *testing.T) {
	stmts := []string{
		"CREATE TABLE T (a INTEGER, b REAL, c TEXT)",
		"DROP TABLE T",
		"INSERT INTO T (a, b) VALUES (1, 2.5), (3, 4.5) WITH CONFIDENCE 0.5 COST 10",
		"DELETE FROM T WHERE (a = 1)",
		"UPDATE T SET a = (a + 1), b = 2 WHERE (a > 0)",
		"EXPLAIN SELECT a FROM T",
	}
	for _, s := range stmts {
		stmt, err := ParseStatement(s)
		if err != nil {
			t.Fatalf("ParseStatement(%q): %v", s, err)
		}
		rendered := stmt.SQL()
		again, err := ParseStatement(rendered)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		if again.SQL() != rendered {
			t.Errorf("round trip diverged: %q vs %q", rendered, again.SQL())
		}
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	cat := relation.NewCatalog()
	execAll(t, cat,
		`CREATE TABLE T ("count" INT, "Confidence" REAL)`,
		`INSERT INTO T VALUES (1, 0.5)`,
	)
	res := execAll(t, cat, `SELECT "count", "Confidence" FROM T WHERE "count" = 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if _, err := Lex(`"unterminated`); err == nil {
		t.Fatal("unterminated quoted identifier should fail")
	}
	if _, err := Lex(`""`); err == nil {
		t.Fatal("empty quoted identifier should fail")
	}
}

func TestInsertValidation(t *testing.T) {
	cat := relation.NewCatalog()
	execAll(t, cat, `CREATE TABLE T (a INT)`)
	bad := []string{
		`INSERT INTO Missing VALUES (1)`,
		`INSERT INTO T (nope) VALUES (1)`,
		`INSERT INTO T VALUES (1, 2)`,
		`INSERT INTO T VALUES ('text')`,
		`INSERT INTO T VALUES (1) WITH CONFIDENCE 'high'`,
		`INSERT INTO T VALUES (1) WITH CONFIDENCE 2`,
		`INSERT INTO T VALUES (1) WITH CONFIDENCE 0.5 COST 'cheap'`,
	}
	for _, q := range bad {
		if _, err := Exec(cat, q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
}

func TestCreateIndexStatement(t *testing.T) {
	cat := relation.NewCatalog()
	execAll(t, cat,
		`CREATE TABLE T (k INT, v TEXT)`,
		`INSERT INTO T VALUES (1, 'a'), (2, 'b'), (2, 'c')`,
		`CREATE INDEX ON T (k)`,
	)
	// The planner now uses the index for equality lookups.
	res := execAll(t, cat, `EXPLAIN SELECT v FROM T WHERE k = 2`)
	if !strings.Contains(res.Plan, "IndexScan T (k = 2)") {
		t.Fatalf("plan does not use the index:\n%s", res.Plan)
	}
	sel := execAll(t, cat, `SELECT v FROM T WHERE k = 2 ORDER BY v`)
	if len(sel.Rows) != 2 {
		t.Fatalf("rows = %d", len(sel.Rows))
	}
	// Residual predicates are checked on the rows the index yields, in
	// the same leaf.
	res = execAll(t, cat, `EXPLAIN SELECT v FROM T WHERE k = 2 AND v = 'b'`)
	if !strings.Contains(res.Plan, "IndexScan T (k = 2) filter (T.v = 'b')") {
		t.Fatalf("expected the residual filter on the index-scan leaf:\n%s", res.Plan)
	}
	// Errors.
	if _, err := Exec(cat, `CREATE INDEX ON Missing (k)`); err == nil {
		t.Fatal("unknown table should fail")
	}
	if _, err := Exec(cat, `CREATE INDEX ON T (nope)`); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := ParseStatement(`CREATE INDEX T (k)`); err == nil {
		t.Fatal("missing ON should fail")
	}
	// Round trip.
	stmt, err := ParseStatement(`CREATE INDEX ON T (k)`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.SQL() != "CREATE INDEX ON T (k)" {
		t.Fatalf("SQL = %q", stmt.SQL())
	}
}

func TestConfidencePseudoColumnSelect(t *testing.T) {
	cat := ventureCatalog(t)
	rows, schema, err := queryLatest(cat, `
		SELECT Company, _confidence FROM Proposal ORDER BY _confidence DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if schema.Columns[1].Name != relation.ConfidenceColumn {
		t.Fatalf("schema = %v", schema)
	}
	// Descending confidences: 0.5, 0.4, 0.3.
	want := []float64{0.5, 0.4, 0.3}
	for i, w := range want {
		if p, _ := rows[i].Values[1].AsFloat(); math.Abs(p-w) > 1e-9 {
			t.Fatalf("row %d confidence = %v, want %v", i, rows[i].Values[1], w)
		}
	}
}

func TestConfidencePseudoColumnWhere(t *testing.T) {
	cat := ventureCatalog(t)
	rows, _, err := queryLatest(cat, `SELECT Company FROM Proposal WHERE _confidence >= 0.4`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (0.5 and 0.4)", len(rows))
	}
}

func TestConfidencePseudoColumnAggregate(t *testing.T) {
	cat := ventureCatalog(t)
	rows, _, err := queryLatest(cat, `
		SELECT Company, AVG(_confidence) AS avgc FROM Proposal GROUP BY Company ORDER BY Company`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	// ZStart: (0.3+0.4)/2 = 0.35.
	if avg, _ := rows[1].Values[1].AsFloat(); math.Abs(avg-0.35) > 1e-9 {
		t.Fatalf("ZStart avg confidence = %v", rows[1].Values[1])
	}
}

func TestConfidencePseudoColumnJoinSemantics(t *testing.T) {
	// Attached after the FROM block: for a join query the value reflects
	// the joined row's combined (AND) lineage.
	cat := ventureCatalog(t)
	rows, _, err := queryLatest(cat, `
		SELECT CompanyInfo.Company, _confidence
		FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company
		WHERE Funding < 1000000
		ORDER BY _confidence DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Joined confidences: 0.1·0.4 = 0.04 and 0.1·0.3 = 0.03.
	if p, _ := rows[0].Values[1].AsFloat(); math.Abs(p-0.04) > 1e-9 {
		t.Fatalf("first joined confidence = %v", rows[0].Values[1])
	}
	if p, _ := rows[1].Values[1].AsFloat(); math.Abs(p-0.03) > 1e-9 {
		t.Fatalf("second joined confidence = %v", rows[1].Values[1])
	}
}

func TestConfidencePseudoColumnMutations(t *testing.T) {
	cat := relation.NewCatalog()
	execAll(t, cat,
		`CREATE TABLE T (a INT)`,
		`INSERT INTO T VALUES (1) WITH CONFIDENCE 0.2`,
		`INSERT INTO T VALUES (2) WITH CONFIDENCE 0.8`,
	)
	// Delete the untrustworthy rows.
	res := execAll(t, cat, `DELETE FROM T WHERE _confidence < 0.5`)
	if res.Affected != 1 {
		t.Fatalf("deleted = %d", res.Affected)
	}
	// Boost confidence relative to its current value.
	res = execAll(t, cat, `UPDATE T SET _confidence = _confidence + 0.1`)
	if res.Affected != 1 {
		t.Fatalf("updated = %d", res.Affected)
	}
	tab, _ := cat.Table("T")
	if got := tab.RowsAt(cat.Snapshot())[0].Confidence(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("confidence = %v, want 0.9", got)
	}
}

func TestConfidencePseudoColumnExplain(t *testing.T) {
	cat := ventureCatalog(t)
	res := execAll(t, cat, `EXPLAIN SELECT Company FROM Proposal WHERE _confidence > 0.4`)
	if !strings.Contains(res.Plan, "AttachConfidence") {
		t.Fatalf("plan missing AttachConfidence:\n%s", res.Plan)
	}
}

// TestDMLSubqueryReadsAtItsTransaction: a DELETE or UPDATE resolves its
// WHERE clause's IN-subquery at the version its own transaction reads
// over. A writer holding the lock raises S.a's confidence past the
// subquery's filter and commits while the statement is in flight; the
// statement's transaction begins after that commit, so it must see
// S.a at 0.9 and touch nothing. (Resolving the subquery before Begin
// read 0.1 and hit both O rows.) The statement blocks in Begin before
// it reads anything, so the sleep can only make a broken build pass
// less often, never a correct one fail.
func TestDMLSubqueryReadsAtItsTransaction(t *testing.T) {
	for _, stmt := range []string{
		`DELETE FROM O WHERE Name IN (SELECT Name FROM S WHERE _confidence < 0.5)`,
		`UPDATE O SET Item = 0 WHERE Name IN (SELECT Name FROM S WHERE _confidence < 0.5)`,
	} {
		cat := relation.NewCatalog()
		execAll(t, cat,
			`CREATE TABLE S (Name TEXT)`,
			`CREATE TABLE O (Name TEXT, Item INT)`,
			`INSERT INTO S VALUES ('a') WITH CONFIDENCE 0.1`,
			`INSERT INTO O VALUES ('a', 1), ('a', 2)`,
		)
		s, _ := cat.Table("S")
		before := cat.Snapshot()
		a := s.RowsAt(before)[0].Var()
		before.Release()

		w := cat.Begin()
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := Exec(cat, stmt)
			done <- outcome{res, err}
		}()
		time.Sleep(100 * time.Millisecond)
		if err := w.SetConfidence(a, 0.9); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		out := <-done
		if out.err != nil {
			t.Fatalf("%s: %v", stmt, out.err)
		}
		if out.res.Affected != 0 {
			t.Errorf("%s: affected %d rows its transaction's read version excludes", stmt, out.res.Affected)
		}
		rows, _, err := queryLatest(cat, `SELECT Item FROM O ORDER BY Item`)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 || rows[0].Values[0].String() != "1" || rows[1].Values[0].String() != "2" {
			t.Errorf("%s: O = %v, want items 1 and 2 untouched", stmt, rows)
		}
	}
}

// TestEquiJoinNullKeysMatchNothing: NULL = NULL is not true, so a row
// whose join key is NULL joins nothing, whichever spelling of the
// equality the statement uses and whichever join operator the planner
// picks for it: a hash join, an index join (B.y indexed, B large
// enough for the probe to be cheaper) or a nested loop over the
// residual predicate.
func TestEquiJoinNullKeysMatchNothing(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		cat := relation.NewCatalog()
		script := `CREATE TABLE A (n TEXT, x INT);
			CREATE TABLE B (m TEXT, y INT);
			INSERT INTO A VALUES ('a1', 1), ('anull', NULL);
			INSERT INTO B VALUES ('b1', 1), ('bnull', NULL)`
		for i := range 60 {
			script += fmt.Sprintf(", ('pad', %d)", 100+i)
		}
		if indexed {
			script += `; CREATE INDEX ON B (y)`
		}
		if _, err := ExecScript(cat, script); err != nil {
			t.Fatal(err)
		}
		for q, want := range map[string]string{
			"SELECT A.n, B.m FROM A JOIN B ON A.x = B.y":                 "(a1, b1)",
			"SELECT A.n, B.m FROM A JOIN B ON A.x = B.y + 0":             "(a1, b1)",
			"SELECT A.n, B.m FROM A JOIN B ON A.x >= B.y AND A.x <= B.y": "(a1, b1)",
			"SELECT A.n FROM A WHERE A.x IN (SELECT y FROM B)":           "(a1)",
		} {
			rows, _, err := queryLatest(cat, q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			got := make([]string, len(rows))
			for i, r := range rows {
				got[i] = r.String()
			}
			res, err := Exec(cat, "EXPLAIN "+q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, " ") != want {
				t.Errorf("indexed=%v %s: rows %v, want %s\n%s", indexed, q, got, want, res.Plan)
			}
			if strings.HasSuffix(q, "A.x = B.y") && strings.Contains(res.Plan, "IndexJoin") != indexed {
				t.Errorf("indexed=%v %s: want an IndexJoin exactly when B.y is indexed:\n%s", indexed, q, res.Plan)
			}
		}
	}
}
