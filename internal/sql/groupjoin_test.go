package sql_test

import (
	"fmt"
	"strings"
	"testing"

	"pcqe/internal/lineage"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
)

// unfused returns op with the group-join at its top (under ORDER BY and
// LIMIT) replaced by the Project DISTINCT → HashJoin plan it stands for,
// and that group-join; nil when op has none there.
func unfused(op relation.Operator) (relation.Operator, *relation.GroupJoin) {
	switch o := op.(type) {
	case *relation.GroupJoin:
		return o.Project, o
	case *relation.Limit:
		in, gj := unfused(o.Input)
		return &relation.Limit{Input: in, N: o.N, Offset: o.Offset}, gj
	case *relation.Sort:
		in, gj := unfused(o.Input)
		return &relation.Sort{Input: in, Keys: o.Keys}, gj
	}
	return op, nil
}

// groupJoinAgrees plans query at version v, requires a group-join in
// the plan when want says so, and holds the plan to the same plan run
// through the Project DISTINCT → HashJoin it replaced: the same error,
// or the same rows in the same order with the same lineage, every row
// the group-join priced bit-equal to lineage.Prob at v. It returns
// how many rows the group-join returned and how many it priced, -1 and
// 0 when the plan holds none.
func groupJoinAgrees(t *testing.T, cat *relation.Catalog, query string, v int64, want bool) (int, int) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	op, _, err := sql.PlanDetailedAt(cat, stmt, v)
	if err != nil {
		return -1, 0
	}
	ref, gj := unfused(op)
	if gj == nil {
		if want {
			t.Errorf("%s: planned without a group-join:\n%s", query, relation.Explain(op))
		}
		return -1, 0
	}
	got, gotErr := relation.RunAt(op, v)
	wantRows, wantErr := relation.RunAt(ref, v)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s at version %d: error %v, the hash join's %v", query, v, gotErr, wantErr)
		return 0, 0
	}
	image := func(rows []*relation.Tuple) string {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%v %s\n", r, r.Lineage)
		}
		return b.String()
	}
	if g, w := image(got), image(wantRows); g != w {
		t.Errorf("%s at version %d:\n%s\nthe hash join's:\n%s", query, v, g, w)
	}
	snap, err := cat.SnapshotAt(v)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	priced := 0
	for _, r := range got {
		if p, ok := r.Priced(v); ok {
			priced++
			if want := lineage.Prob(r.Lineage, snap); p != want {
				t.Errorf("%s at version %d: row %v %s priced %v, lineage.Prob %v", query, v, r, r.Lineage, p, want)
			}
		}
	}
	return len(got), priced
}

// TestGroupJoinDifferential holds the group-join to the plan it
// replaces, statement by statement and version by version: NULL keys,
// keys on one side only, a TEXT constant never stored, INTEGER keys,
// kept records that share their projected values, a self-join (which
// prices nothing), filters on NULL cells that only EvalBool decides, a
// DELETE, an UPDATE, a confidence change, a rolled-back insert and a
// historical version. Then every generated key-join statement the
// planner runs as a group-join.
func TestGroupJoinDifferential(t *testing.T) {
	cat := relation.NewCatalog()
	if _, err := sql.ExecScript(cat, `
		CREATE TABLE S (Name TEXT, Region TEXT, Rating REAL, Code INTEGER);
		CREATE TABLE O (Supplier TEXT, Item INTEGER, Amount REAL);
		INSERT INTO S VALUES ('s1', 'north', 4.5, 1) WITH CONFIDENCE 0.3;
		INSERT INTO S VALUES ('s2', 'north', NULL, 2) WITH CONFIDENCE 0.7;
		INSERT INTO S VALUES ('s3', 'south', 2.5, NULL) WITH CONFIDENCE 1;
		INSERT INTO S VALUES (NULL, 'south', 3.5, 3) WITH CONFIDENCE 0.1;
		INSERT INTO S VALUES ('s5', 'east', 1.5, 4) WITH CONFIDENCE 0;
		INSERT INTO S VALUES ('s1', 'west', 3.0, 1) WITH CONFIDENCE 0.55;
		INSERT INTO S VALUES ('s6', 'north', 5.0, 2) WITH CONFIDENCE 0.15;
		INSERT INTO O VALUES ('s1', 1, 10.0) WITH CONFIDENCE 0.45;
		INSERT INTO O VALUES ('s2', 2, NULL) WITH CONFIDENCE 0.2;
		INSERT INTO O VALUES ('s1', 2, 30.0) WITH CONFIDENCE 0.65;
		INSERT INTO O VALUES (NULL, 3, 40.0) WITH CONFIDENCE 0.9;
		INSERT INTO O VALUES ('s3', NULL, 50.0) WITH CONFIDENCE 1;
		INSERT INTO O VALUES ('s9', 4, 60.0) WITH CONFIDENCE 0.35;
		INSERT INTO O VALUES ('s1', 1, 70.0) WITH CONFIDENCE 0.35;
		INSERT INTO O VALUES ('s3', 3, 80.0) WITH CONFIDENCE 0;
		INSERT INTO O VALUES ('s6', 2, 90.0) WITH CONFIDENCE 0.6;
	`); err != nil {
		t.Fatal(err)
	}
	versions := []int64{cat.Version()}
	step := func(script string) {
		if _, err := sql.ExecScript(cat, script); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, cat.Version())
	}
	step(`DELETE FROM O WHERE Amount = 30.0`)
	step(`UPDATE O SET Supplier = 's2' WHERE Amount = 60.0`)
	step(`UPDATE S SET _confidence = 0.35 WHERE Name = 's2'`)
	// A rolled-back insert leaves its records in the store, never born.
	s, _ := cat.Table("S")
	o, _ := cat.Table("O")
	x := cat.Begin()
	x.MustInsert(s, 0.5, nil, relation.String_("s7"), relation.String_("north"), relation.Float(4), relation.Int(2))
	x.MustInsert(o, 0.5, nil, relation.String_("s7"), relation.Int(2), relation.Float(5))
	x.Rollback()
	step(`INSERT INTO O VALUES ('s5', 4, 15.0) WITH CONFIDENCE 0.05`)

	from := " FROM S JOIN O ON S.Name = O.Supplier"
	cases := []struct {
		query string
		self  bool // a self-join: the group-join prices nothing
	}{
		{"SELECT DISTINCT S.Name" + from, false},
		{"SELECT DISTINCT O.Supplier, O.Item" + from, false},
		{"SELECT DISTINCT S.Region" + from, false},
		{"SELECT DISTINCT S.Region, S.Region" + from + " WHERE O.Amount > 20", false},
		{"SELECT DISTINCT S.Name" + from + " WHERE S.Name <> 'never stored'", false},
		{"SELECT DISTINCT S.Name" + from + " WHERE O.Supplier = 'never stored'", false},
		{"SELECT DISTINCT S.Name, S.Code" + from + " WHERE S.Rating > 2 AND O.Amount < 75", false},
		{"SELECT DISTINCT O.Item" + from + " WHERE S.Rating * 2 > 5 OR S.Name LIKE 's%'", false},
		{"SELECT DISTINCT O.Amount" + from + " WHERE NOT (O.Amount > 45)", false},
		{"SELECT DISTINCT S.Name AS n" + from + " ORDER BY n DESC LIMIT 2", false},
		{"SELECT DISTINCT S.Region FROM O JOIN S ON O.Item = S.Code", false},
		{"SELECT DISTINCT O.Supplier FROM S JOIN O ON S.Code = O.Item WHERE S.Region = 'north'", false},
		{"SELECT DISTINCT a.Name FROM S a JOIN S b ON a.Region = b.Region", true},
		{"SELECT DISTINCT b.Region FROM S a JOIN S b ON a.Code = b.Code WHERE a.Rating > 2", true},
	}
	for _, tc := range cases {
		rows, priced := 0, 0
		for _, v := range versions {
			n, p := groupJoinAgrees(t, cat, tc.query, v, true)
			rows, priced = rows+n, priced+p
		}
		if tc.self && priced > 0 || !tc.self && rows > 0 && priced == 0 {
			t.Errorf("%s: %d rows priced of %d over all versions", tc.query, priced, rows)
		}
	}

	// TEXT keys before any string is stored: NULLs only.
	empty := relation.NewCatalog()
	if _, err := sql.ExecScript(empty, `
		CREATE TABLE E (k TEXT, v INTEGER);
		CREATE TABLE F (k TEXT);
		INSERT INTO E VALUES (NULL, 1) WITH CONFIDENCE 0.5;
		INSERT INTO F VALUES (NULL) WITH CONFIDENCE 0.5;
	`); err != nil {
		t.Fatal(err)
	}
	if n, _ := groupJoinAgrees(t, empty, "SELECT DISTINCT E.v FROM E JOIN F ON E.k = F.k", empty.Version(), true); n != 0 {
		t.Errorf("NULL TEXT keys joined %d rows", n)
	}

	t.Run("generated", func(t *testing.T) {
		// Generated key joins, at the version each catalog stands at.
		fused, priced := 0, 0
		for _, data := range generatedInputs(generatedRuns) {
			in, err := generate(data)
			if err != nil {
				t.Fatal(err)
			}
			if !in.saw["key join"] {
				continue
			}
			n, p := groupJoinAgrees(t, in.cat, in.query, in.cat.Version(), false)
			if n >= 0 {
				fused++
			}
			priced += p
			if t.Failed() {
				t.Fatalf("%s", in)
			}
		}
		if fused < 50 || priced == 0 {
			t.Errorf("%d generated statements planned a group-join, %d rows priced: want at least 50 and some", fused, priced)
		}
		t.Logf("%d generated statements ran as a group-join, %d rows priced", fused, priced)
	})
}
