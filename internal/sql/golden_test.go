package sql

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pcqe/internal/relation"
)

// TestResultImageGoldens pins what every corpus query returns, row by
// row and in order: each cell with its type, then the row's lineage as
// Lineage.String() renders it (the confidence cache's key), or the
// error a query fails with. Both planners' plans are recorded, so the
// statement-order reference's nested-loop and hash joins are pinned
// beside the engine's. The goldens under testdata/ were recorded before
// the operators moved from row-at-a-time to batches; any change to an
// operator that moves a row, a lineage operand or an error text fails
// here. UPDATE_GOLDEN=1 re-records them.
func TestResultImageGoldens(t *testing.T) {
	starIndexed := func(t *testing.T) *relation.Catalog {
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
	serving := allServingShapes()
	names := make([]string, 0, len(serving))
	for name := range serving {
		names = append(names, name)
	}
	sort.Strings(names)
	shapes := make([]string, len(names))
	for i, name := range names {
		shapes[i] = serving[name]
	}
	for _, c := range []struct {
		name    string
		catalog func(*testing.T) *relation.Catalog
		queries []string
	}{
		{"serving", servingCatalog, shapes},
		{"venture", ventureCatalog, ventureQueries},
		{"star", starTestCatalog, starQueries},
		{"star-indexed", starIndexed, starQueries},
		{"corpus", corpusCatalog, corpusSelects(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			cat := c.catalog(t)
			var b strings.Builder
			for _, q := range c.queries {
				stmt, err := Parse(q)
				if err != nil {
					continue
				}
				fmt.Fprintf(&b, "== %s\n", strings.Join(strings.Fields(q), " "))
				for _, planner := range []struct {
					name string
					plan func() (relation.Operator, error)
				}{
					{"engine", func() (relation.Operator, error) {
						op, _, err := PlanDetailedAt(cat, stmt, cat.Version())
						return op, err
					}},
					{"reference", func() (relation.Operator, error) { return PlanRuleBased(cat, stmt, cat.Version()) }},
				} {
					fmt.Fprintf(&b, "-- %s\n", planner.name)
					op, err := planner.plan()
					var rows []*relation.Tuple
					if err == nil {
						rows, err = relation.RunAt(op, cat.Version())
					}
					if err != nil {
						fmt.Fprintf(&b, "error: %v\n", err)
						continue
					}
					for _, r := range rows {
						for _, v := range r.Values {
							fmt.Fprintf(&b, "%s %s | ", v.Type(), v)
						}
						fmt.Fprintf(&b, "%s\n", r.Lineage)
					}
				}
			}
			golden := filepath.Join("testdata", "results-"+c.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to record)", err)
			}
			if got := b.String(); got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("%s line %d:\n got %.300s\nwant %.300s", golden, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", golden, len(gl), len(wl))
			}
		})
	}
}
