package sql_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pcqe/internal/core"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
)

// answer is what the engine returned: the columns, the rows and each
// row's confidence.
type answer struct {
	schema *relation.Schema
	rows   []*relation.Tuple
	conf   func(i int) float64
}

// queried is a plan-cache or QuerySnap result as an answer, each row's
// confidence read at the snapshot it ran at.
func queried(snap *relation.Snapshot, res sql.QueryResult) answer {
	return answer{res.Schema, res.Rows, func(i int) float64 { return snap.Confidence(res.Rows[i]) }}
}

// agree compares the engine's answer to a statement with the
// reference's. They agree when both fail, or when both succeed with
// equal column names and equal multisets of rows — a REAL value to a
// relative 1e-9, since SUM and AVG may add in another order — where
// each engine row's confidence is within 1e-9 of the reference row it
// matches. valuesOnly drops the confidences: under LIMIT, equal rows
// may carry different lineage.
func agree(ref *reference, got answer, engErr error, want *result, refErr error, valuesOnly bool) error {
	if (engErr != nil) != (refErr != nil) {
		return fmt.Errorf("engine error: %v\nreference error: %v", engErr, refErr)
	}
	if engErr != nil {
		return nil
	}
	names := make([]string, len(want.cols))
	for i, c := range want.cols {
		names[i] = c.name
	}
	engNames := make([]string, got.schema.Len())
	for i, c := range got.schema.Columns {
		engNames[i] = c.Name
	}
	if g, w := strings.Join(engNames, ", "), strings.Join(names, ", "); g != w {
		return fmt.Errorf("columns (%s), reference (%s)", g, w)
	}
	if len(got.rows) != len(want.rows) {
		return fmt.Errorf("%d rows, reference %d\nengine:    %s\nreference: %s",
			len(got.rows), len(want.rows), engineRows(got.rows), referenceRows(want.rows))
	}
	confs := make([]float64, len(want.rows))
	for i, rw := range want.rows {
		var err error
		if confs[i], err = ref.confidence(rw.lin); err != nil {
			return err
		}
	}
	matched := make([]bool, len(want.rows))
next:
	for i, t := range got.rows {
		c := got.conf(i)
		valuesMatch := false
		for j, rw := range want.rows {
			if matched[j] || !sameValues(t.Values, rw.vals) {
				continue
			}
			valuesMatch = true
			if valuesOnly || math.Abs(c-confs[j]) <= 1e-9 {
				matched[j] = true
				continue next
			}
		}
		if valuesMatch {
			return fmt.Errorf("row %v: confidence %v (lineage %s), the reference's equal rows differ\nreference: %s",
				t.Values, c, t.Lineage, referenceRows(want.rows))
		}
		return fmt.Errorf("row %v is not the reference's\nengine:    %s\nreference: %s",
			t.Values, engineRows(got.rows), referenceRows(want.rows))
	}
	return nil
}

func sameValues(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Type() != y.Type() {
			return false
		}
		if xf, ok := x.AsFloat(); ok && x.Type() == relation.TypeFloat {
			yf, _ := y.AsFloat()
			if math.Abs(xf-yf) > 1e-9*math.Max(1, math.Max(math.Abs(xf), math.Abs(yf))) {
				return false
			}
		} else if x.Key() != y.Key() {
			return false
		}
	}
	return true
}

func engineRows(rows []*relation.Tuple) string {
	parts := make([]string, len(rows))
	for i, t := range rows {
		parts[i] = fmt.Sprintf("%v %s", t.Values, t.Lineage)
	}
	return strings.Join(parts, "; ")
}

func referenceRows(rows []row) string {
	parts := make([]string, len(rows))
	for i, rw := range rows {
		parts[i] = fmt.Sprintf("%v %s", rw.vals, rw.lin)
	}
	return strings.Join(parts, "; ")
}

// limited reports whether a LIMIT or OFFSET cuts any block of the
// statement, its derived tables and IN-subqueries included.
func limited(s *sql.SelectStmt) bool {
	for b := s; b != nil; b = b.Next {
		if b.Limit >= 0 || b.Offset > 0 {
			return true
		}
		for _, tr := range append([]sql.TableRef{b.From}, joinTables(b)...) {
			if tr.Sub != nil && limited(tr.Sub) {
				return true
			}
		}
		for _, e := range blockExprs(b) {
			if subqueryLimited(e) {
				return true
			}
		}
	}
	return false
}

func subqueryLimited(e sql.ExprNode) bool {
	if in, ok := e.(*sql.InExpr); ok && in.Sub != nil && limited(in.Sub) {
		return true
	}
	for _, c := range children(e) {
		if subqueryLimited(c) {
			return true
		}
	}
	return false
}

func joinTables(s *sql.SelectStmt) []sql.TableRef {
	refs := make([]sql.TableRef, len(s.Joins))
	for i, j := range s.Joins {
		refs[i] = j.Table
	}
	return refs
}

// differ runs q through the engine (uncached, at snap) and the
// reference and reports whether both succeeded, or how they disagree.
func differ(snap *relation.Snapshot, q string) (ok bool, err error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return false, err
	}
	rows, schema, engErr := sql.QuerySnap(snap, q)
	ref := newReference(snap, false)
	want, refErr := ref.query(q)
	err = agree(ref, queried(snap, sql.QueryResult{Rows: rows, Schema: schema}), engErr, want, refErr, limited(stmt))
	return err == nil && engErr == nil, err
}

// TestPlannerMatchesReference is the planner's differential guard: for
// every corpus statement the engine returns what the reference
// executor (reference_test.go) returns — the same column names, the
// same multiset of rows and the same confidences — or both refuse it.
func TestPlannerMatchesReference(t *testing.T) {
	run := func(t *testing.T, cat *relation.Catalog, queries []string) {
		t.Helper()
		snap := cat.Snapshot()
		defer snap.Release()
		for _, q := range queries {
			if ok, err := differ(snap, q); err != nil || !ok {
				t.Errorf("%s: ran %v, %v", q, ok, err)
			}
		}
	}
	t.Run("venture", func(t *testing.T) { run(t, sql.VentureCatalog(t), sql.VentureQueries) })
	t.Run("star", func(t *testing.T) { run(t, sql.StarTestCatalog(t), sql.StarQueries) })
	t.Run("star-indexed", func(t *testing.T) { run(t, sql.StarIndexedCatalog(t), sql.StarQueries) })
	t.Run("serving", func(t *testing.T) {
		var queries []string
		for _, q := range sql.AllServingShapes() {
			queries = append(queries, q)
		}
		run(t, sql.ServingCatalog(t), queries)
	})
	// Every SELECT of the fuzz corpora, over tables shaped for them:
	// the two agree on the ones either refuses too.
	t.Run("corpus", func(t *testing.T) {
		cat := sql.CorpusCatalog(t)
		snap := cat.Snapshot()
		defer snap.Release()
		compared := 0
		for _, q := range sql.CorpusSelects(t) {
			if _, err := sql.Parse(q); err != nil {
				continue
			}
			ok, err := differ(snap, q)
			if err != nil {
				t.Errorf("%s: %v", q, err)
			}
			if ok {
				compared++
			}
		}
		if compared < 8 {
			t.Errorf("only %d corpus statements ran on both sides", compared)
		}
	})
	// A statement the engine refuses — at plan time or, for a comparison
	// of mixed types, when it runs — fails with its pinned message, and
	// the reference refuses it too.
	t.Run("errors", func(t *testing.T) {
		cat := sql.VentureCatalog(t)
		snap := cat.Snapshot()
		defer snap.Release()
		for _, c := range []struct{ q, err string }{
			{`SELECT x FROM Proposal`, `sql: 1:8: relation: unknown column "x"`},
			{`SELECT Proposal.Company FROM Proposal JOIN CompanyInfo ON Proposal.Company = CompanyInfo.Company WHERE nope = 1`, `sql: 1:104: relation: unknown column "nope"`},
			{`SELECT Company FROM Proposal JOIN CompanyInfo ON Proposal.Company = CompanyInfo.Company`, `sql: 1:8: relation: ambiguous column reference "Company"`},
			{`SELECT Proposal.Company FROM Proposal JOIN CompanyInfo ON Proposal.Company = CompanyInfo.Company WHERE Company = 'x'`, `sql: 1:104: relation: ambiguous column reference "Company"`},
			{`SELECT Proposal.Company FROM Proposal JOIN Nope ON Proposal.Company = Nope.Company`, `sql: 1:44: relation: unknown table "Nope"`},
			{`SELECT Proposal.Company FROM Proposal JOIN CompanyInfo ON Proposal.Company = CompanyInfo.Income`, `relation: cannot compare TEXT with REAL`},
			{`SELECT Company FROM Proposal WHERE COUNT(*) > 1`, `sql: 1:36: aggregate COUNT is only allowed in SELECT with GROUP BY context`},
			{`SELECT a.Company FROM Proposal a JOIN CompanyInfo b ON a.Company = b.Company WHERE COUNT(a.Funding) > b.Income`, `sql: 1:84: aggregate COUNT is only allowed in SELECT with GROUP BY context`},
			{`SELECT Company, COUNT(*) FROM Proposal GROUP BY Company HAVING Company IN (SELECT Company FROM CompanyInfo)`, `sql: 1:72: IN subqueries are only supported in WHERE and JOIN..ON conditions`},
		} {
			if _, _, err := sql.QuerySnap(snap, c.q); err == nil || err.Error() != c.err {
				t.Errorf("%s:\n  engine error %v\n  want %s", c.q, err, c.err)
			}
			if _, err := newReference(snap, false).query(c.q); err == nil {
				t.Errorf("%s: the reference accepts it", c.q)
			}
		}
	})
}

// instance is one generated catalog and statement.
type instance struct {
	cat    *relation.Catalog
	script string // rebuilds the catalog
	query  string
	saw    map[string]bool // the grammar constructs the statement uses
	c      *choices        // what the input has left to decide
}

func generate(data []byte) (*instance, error) {
	in := &instance{c: &choices{data: data}, saw: map[string]bool{}}
	var err error
	if in.cat, in.script, err = genCatalog(in.c, in.saw); err != nil {
		return nil, err
	}
	g := &gen{c: in.c, saw: in.saw}
	for _, name := range in.cat.TableNames() {
		tab, err := in.cat.Table(name)
		if err != nil {
			return nil, err
		}
		g.tables = append(g.tables, tab.Schema().Columns)
	}
	in.query, _, _ = g.query(nil, false)
	return in, nil
}

func (in *instance) String() string { return in.script + in.query }

// checkGenerated runs a generated statement twice through one plan
// cache — the miss, then the hit that reuses the cached plan's
// buffers — and holds both runs to the reference, confidences computed
// by brute force over the possible worlds. It reports whether the
// statement ran.
func checkGenerated(in *instance) (bool, error) {
	snap := in.cat.Snapshot()
	defer snap.Release()
	stmt, err := sql.Parse(in.query)
	if err != nil {
		return false, err
	}
	ref := newReference(snap, true)
	want, refErr := ref.query(in.query)
	pc := sql.NewPlanCache(0)
	for run, name := range []string{"miss", "hit"} {
		res, engErr := pc.QuerySnap(snap, in.query)
		if engErr == nil && res.Hit != (run == 1) {
			return false, fmt.Errorf("%s run: plan cache hit = %v", name, res.Hit)
		}
		if err := agree(ref, queried(snap, res), engErr, want, refErr, limited(stmt)); err != nil {
			return false, fmt.Errorf("%s run: %w", name, err)
		}
	}
	return refErr == nil, nil
}

// FuzzPlannerReference is the generated differential: a random small
// catalog and a random well-typed SELECT over it, both read from the
// input's bytes, through the engine and the reference executor.
func FuzzPlannerReference(f *testing.F) {
	for _, seed := range generatedInputs(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := generate(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkGenerated(in); err != nil {
			t.Fatalf("%s\n%v", in, err)
		}
	})
}

// corpusStatements is what each committed FuzzPlannerReference input
// generates: the regression it was shrunk to pin. A generator change
// that reads the bytes differently must keep these, re-shrinking an
// input (or adding a byte that takes the old path) where it does not.
var corpusStatements = map[string]string{
	"0b7fcf803d3d7134": `CREATE TABLE t0 (a REAL, b INTEGER, c INTEGER);
INSERT INTO t0 VALUES (2, 3, 3) WITH CONFIDENCE 1;
INSERT INTO t0 VALUES (2, 3, 3) WITH CONFIDENCE 1;
INSERT INTO t0 VALUES (2, NULL, 3) WITH CONFIDENCE 1;
INSERT INTO t0 VALUES (2, 3, 3) WITH CONFIDENCE 1;
INSERT INTO t0 VALUES (2, 3, 3) WITH CONFIDENCE 1;
INSERT INTO t0 VALUES (2, 3, 3) WITH CONFIDENCE 1;
CREATE TABLE t1 (a INTEGER);
INSERT INTO t1 VALUES (3) WITH CONFIDENCE 1;
INSERT INTO t1 VALUES (3) WITH CONFIDENCE 1;
SELECT t0.b FROM t0 WHERE (t0.b IS NULL AND t0.b = t0.b)`,
	"78cd5913edbc41b1": `CREATE TABLE t0 (a TEXT, b TEXT);
INSERT INTO t0 VALUES ('B', 'B') WITH CONFIDENCE 1;
INSERT INTO t0 VALUES ('B', NULL) WITH CONFIDENCE 1;
CREATE TABLE t1 (a INTEGER);
INSERT INTO t1 VALUES (3) WITH CONFIDENCE 1;
INSERT INTO t1 VALUES (3) WITH CONFIDENCE 1;
INSERT INTO t1 VALUES (NULL) WITH CONFIDENCE 1;
INSERT INTO t1 VALUES (3) WITH CONFIDENCE 1;
SELECT t1.a FROM t0 JOIN t0 r1 ON t0.a = r1.a JOIN t1 ON t1.a NOT IN (SELECT 3 FROM t0 WHERE 'B' NOT LIKE '%')`,
	"f7be4ee605c21d5e": `CREATE TABLE t0 (a TEXT);
INSERT INTO t0 VALUES (NULL) WITH CONFIDENCE 1;
SELECT 1 FROM t0 WHERE (t0.a = t0.a OR 1 = 1)`,
}

// TestFuzzCorpusGeneratesItsStatements holds every committed
// FuzzPlannerReference input to the statement it was committed for.
func TestFuzzCorpusGeneratesItsStatements(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzPlannerReference/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(corpusStatements) {
		t.Errorf("%d corpus inputs, %d recorded statements", len(files), len(corpusStatements))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		in, err := generate([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		if want, ok := corpusStatements[filepath.Base(f)]; !ok || in.String() != want {
			t.Errorf("%s generates\n%s\nwant\n%s", f, in, want)
		}
	}
}

// generatedInputs are the tier-1 run's inputs: n pseudo-random byte
// strings from a fixed seed.
func generatedInputs(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 64+rng.Intn(192))
		rng.Read(out[i])
	}
	return out
}

// generatedRuns is how many generated statements tier-1 holds to the
// reference (the committed corpus of FuzzPlannerReference runs too).
const generatedRuns = 2000

// constructs is the grammar the generator covers; each must appear in
// at least 10 of the statements that ran.
var constructs = []string{
	"JOIN", "comma join", "CROSS JOIN", "derived table", "AND", "OR", "NOT",
	"comparison", "arithmetic", "IS NULL", "LIKE", "BETWEEN", "IN list",
	"IN subquery", "NOT IN subquery", "DISTINCT", "GROUP BY", "HAVING",
	"COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX", "UNION", "UNION ALL",
	"INTERSECT", "EXCEPT", "_confidence", "ORDER BY", "LIMIT", "OFFSET", "index",
	"key join",
}

// TestGeneratedStatementsMatchReference runs the generated differential
// over a fixed set of inputs and checks that they cover the grammar.
func TestGeneratedStatementsMatchReference(t *testing.T) {
	counts := map[string]int{}
	ran := 0
	for _, data := range generatedInputs(generatedRuns) {
		in, err := generate(data)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := checkGenerated(in)
		if err != nil {
			t.Fatalf("%s\n%v\ninput: %q", in, err, data)
		}
		if ok {
			ran++
			for construct := range in.saw {
				counts[construct]++
			}
		}
	}
	if ran < generatedRuns*9/10 {
		t.Errorf("only %d of %d generated statements ran", ran, generatedRuns)
	}
	for _, construct := range constructs {
		if counts[construct] < 10 {
			t.Errorf("%s appears in %d statements that ran, want at least 10", construct, counts[construct])
		}
	}
}

// TestEngineReleasesAgainstReference runs generated statements through
// core.Engine under a policy whose β the input also decides: Released ∪
// Withheld is the reference's multiset, every released row's
// confidence is strictly above β (Definition 1) and every withheld
// row's at or below it.
func TestEngineReleasesAgainstReference(t *testing.T) {
	for _, data := range generatedInputs(generatedRuns / 3) {
		in, err := generate(data)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := sql.Parse(in.query)
		if err != nil {
			t.Fatal(err)
		}
		beta := pick(in.c, 0.5, 0.25, 0.75, 0)
		store, err := policy.NewStoreFromSpecs([]string{fmt.Sprintf("analyst:audit:%g", beta)}, []string{"ann=analyst"})
		if err != nil {
			t.Fatal(err)
		}
		resp, engErr := core.NewEngine(in.cat, store, nil).Evaluate(core.Request{User: "ann", Purpose: "audit", Query: in.query})
		var got answer
		if engErr == nil {
			if !resp.PolicyApplied || resp.Threshold != beta {
				t.Fatalf("%s\npolicy applied %v at β %v, want β %v", in, resp.PolicyApplied, resp.Threshold, beta)
			}
			for i := range resp.Released.Len() {
				if r := resp.Released.At(i); r.Confidence <= beta {
					t.Errorf("%s\nreleased %v at confidence %v, β %v", in, r.Tuple.Values, r.Confidence, beta)
				}
			}
			for _, r := range resp.Withheld {
				if r.Confidence > beta {
					t.Errorf("%s\nwithheld %v at confidence %v, β %v", in, r.Tuple.Values, r.Confidence, beta)
				}
			}
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
		snap := in.cat.Snapshot()
		ref := newReference(snap, true)
		want, refErr := ref.query(in.query)
		err = agree(ref, got, engErr, want, refErr, limited(stmt))
		snap.Release()
		if err != nil {
			t.Fatalf("%s\nβ %v: %v", in, beta, err)
		}
	}
}
