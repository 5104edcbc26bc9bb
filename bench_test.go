// Benchmarks mirroring the paper's evaluation (one per table/figure) as
// testing.B micro-benchmarks. They exercise the same code paths as
// cmd/benchrunner but at fixed, bench-friendly sizes so `go test
// -bench=.` finishes quickly; run `go run ./cmd/benchrunner -full` for
// the paper's complete grid with wall-clock numbers.
package pcqe

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
	"pcqe/internal/relation"
	"pcqe/internal/strategy"
	"pcqe/internal/workload"
)

// genInstance builds a Table 4 workload for benchmarks.
func genInstance(b *testing.B, size, perResult int, seed int64) *strategy.Instance {
	b.Helper()
	in, err := workload.Generate(workload.Params{
		DataSize:        size,
		TuplesPerResult: perResult,
		Delta:           0.1,
		Theta:           0.5,
		Beta:            0.6,
		Seed:            seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// tiny builds the Figure 11(a)/(d) instance: 10 tuples, need 3 of 6.
// Initial confidences 0.3–0.5 keep the exhaustive Naive baseline in
// bench-friendly territory (see internal/bench.tinyInstance for the
// same calibration note).
func tiny(b *testing.B, seed int64) *strategy.Instance {
	b.Helper()
	in, err := workload.Generate(workload.Params{
		DataSize: 10, TuplesPerResult: 5, Delta: 0.1,
		Theta: 0.5, Beta: 0.6, Results: 6,
		ConfLo: 0.3, ConfHi: 0.5, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	in.Need = 3
	return in
}

func solveB(b *testing.B, s strategy.Solver, mk func() *strategy.Instance) {
	b.Helper()
	solveWide(b, s, 0, mk)
}

// solveWide is solveB on a worker pool of the given width.
func solveWide(b *testing.B, s strategy.Solver, workers int, mk func() *strategy.Instance) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveContext(context.Background(), mk(), strategy.Budget{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 11(a): heuristic variants without a greedy bound. ---

func BenchmarkFig11aNaive(b *testing.B) {
	solveB(b, &strategy.Heuristic{}, func() *strategy.Instance { return tiny(b, 1) })
}

func BenchmarkFig11aH1(b *testing.B) {
	solveB(b, &strategy.Heuristic{UseH1: true}, func() *strategy.Instance { return tiny(b, 1) })
}

func BenchmarkFig11aH2(b *testing.B) {
	solveB(b, &strategy.Heuristic{UseH2: true}, func() *strategy.Instance { return tiny(b, 1) })
}

func BenchmarkFig11aH3(b *testing.B) {
	solveB(b, &strategy.Heuristic{UseH3: true}, func() *strategy.Instance { return tiny(b, 1) })
}

func BenchmarkFig11aH4(b *testing.B) {
	solveB(b, &strategy.Heuristic{UseH4: true}, func() *strategy.Instance { return tiny(b, 1) })
}

func BenchmarkFig11aAll(b *testing.B) {
	solveB(b, &strategy.Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true},
		func() *strategy.Instance { return tiny(b, 1) })
}

// --- Figure 11(d): the same variants seeded with the greedy bound. ---

func BenchmarkFig11dNaive(b *testing.B) {
	solveB(b, &strategy.Heuristic{GreedyBound: true}, func() *strategy.Instance { return tiny(b, 1) })
}

func BenchmarkFig11dAll(b *testing.B) {
	solveB(b, strategy.NewHeuristic(), func() *strategy.Instance { return tiny(b, 1) })
}

// --- Figure 11(b): greedy one-phase vs two-phase, response time. ---

func BenchmarkFig11bOnePhase1K(b *testing.B) {
	solveB(b, &strategy.Greedy{SkipRefinement: true},
		func() *strategy.Instance { return genInstance(b, 1000, 5, 1) })
}

func BenchmarkFig11bTwoPhase1K(b *testing.B) {
	solveB(b, &strategy.Greedy{}, func() *strategy.Instance { return genInstance(b, 1000, 5, 1) })
}

// --- Figure 11(e): the cost side is a shape assertion, not a timing. ---

func BenchmarkFig11eRefinementGain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one, err := (&strategy.Greedy{SkipRefinement: true}).SolveContext(context.Background(), genInstance(b, 1000, 5, 1), strategy.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		two, err := (&strategy.Greedy{}).SolveContext(context.Background(), genInstance(b, 1000, 5, 1), strategy.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		if two.Cost > one.Cost {
			b.Fatal("refinement increased cost")
		}
		b.ReportMetric(100*(one.Cost-two.Cost)/one.Cost, "%cost-reduction")
	}
}

// --- Figure 11(c)/(f): the three algorithms across sizes. ---

func BenchmarkFig11cHeuristicTiny(b *testing.B) {
	solveB(b, strategy.NewHeuristic(), func() *strategy.Instance { return tiny(b, 1) })
}

func BenchmarkFig11cGreedy1K(b *testing.B) {
	solveB(b, &strategy.Greedy{}, func() *strategy.Instance { return genInstance(b, 1000, 5, 1) })
}

func BenchmarkFig11cGreedy5K(b *testing.B) {
	solveB(b, &strategy.Greedy{}, func() *strategy.Instance { return genInstance(b, 5000, 5, 1) })
}

func BenchmarkFig11cDnc1K(b *testing.B) {
	solveB(b, strategy.NewDivideAndConquer(), func() *strategy.Instance { return genInstance(b, 1000, 5, 1) })
}

func BenchmarkFig11cDnc5K(b *testing.B) {
	solveB(b, strategy.NewDivideAndConquer(), func() *strategy.Instance { return genInstance(b, 5000, 5, 1) })
}

func BenchmarkFig11cDnc10K(b *testing.B) {
	solveB(b, strategy.NewDivideAndConquer(), func() *strategy.Instance { return genInstance(b, 10000, 10, 1) })
}

// --- Ablations (design choices from DESIGN.md). ---

func BenchmarkAblationGainIncremental(b *testing.B) {
	solveB(b, &strategy.Greedy{Incremental: true},
		func() *strategy.Instance { return genInstance(b, 5000, 5, 1) })
}

func BenchmarkAblationGainRescan(b *testing.B) {
	solveB(b, &strategy.Greedy{}, func() *strategy.Instance { return genInstance(b, 5000, 5, 1) })
}

func BenchmarkAblationGamma(b *testing.B) {
	for _, gamma := range []int{1, 2, 5} {
		b.Run(gammaName(gamma), func(b *testing.B) {
			solveB(b, &strategy.DivideAndConquer{Gamma: gamma, Tau: 8, MaxGroupResults: 64},
				func() *strategy.Instance { return genInstance(b, 5000, 5, 1) })
		})
	}
}

func gammaName(g int) string { return "gamma" + string(rune('0'+g)) }

func BenchmarkAblationTau(b *testing.B) {
	for _, tau := range []int{0, 8} {
		name := "tau0"
		if tau == 8 {
			name = "tau8"
		}
		b.Run(name, func(b *testing.B) {
			solveB(b, &strategy.DivideAndConquer{Gamma: 1, Tau: tau, MaxGroupResults: 64},
				func() *strategy.Instance { return genInstance(b, 1000, 5, 1) })
		})
	}
}

func BenchmarkAblationOrdering(b *testing.B) {
	b.Run("instance-order", func(b *testing.B) {
		solveB(b, &strategy.Heuristic{UseH2: true, UseH3: true, UseH4: true},
			func() *strategy.Instance { return tiny(b, 1) })
	})
	b.Run("H1-order", func(b *testing.B) {
		solveB(b, &strategy.Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true},
			func() *strategy.Instance { return tiny(b, 1) })
	})
}

func BenchmarkAblationShannon(b *testing.B) {
	// (x∧a1)∨(x∧a2)∨...: one shared variable across 8 clauses.
	x := lineage.NewVar(1)
	var clauses []*lineage.Expr
	assign := lineage.MapAssignment{1: 0.5}
	for i := 2; i < 10; i++ {
		v := lineage.Var(i)
		assign[v] = 0.3
		clauses = append(clauses, lineage.And(x, lineage.NewVar(v)))
	}
	e := lineage.Or(clauses...)
	// What the engine pays on a confidence-cache miss: compile, then one
	// kernel evaluation.
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := lineage.CompileExact(e, lineage.DefaultSharedLimit)
			if err != nil {
				b.Fatal(err)
			}
			probs := make([]float64, p.NumSlots())
			for s, v := range p.Vars() {
				probs[s] = assign[v]
			}
			lineage.NewMachine(p).Prob(probs)
		}
	})
	b.Run("independent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lineage.ProbIndependent(e, assign)
		}
	})
}

// --- Substrate micro-benchmarks. ---

func BenchmarkLineageProbReadOnce(b *testing.B) {
	in := genInstance(b, 1000, 25, 1)
	assign := lineage.FuncAssignment(func(v lineage.Var) float64 { return 0.1 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lineage.ProbIndependent(in.Results[i%len(in.Results)].Formula, assign)
	}
}

func BenchmarkLineageDerivatives(b *testing.B) {
	in := genInstance(b, 1000, 25, 1)
	assign := lineage.FuncAssignment(func(v lineage.Var) float64 { return 0.1 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lineage.Derivatives(in.Results[i%len(in.Results)].Formula, assign)
	}
}

func BenchmarkWorkloadGenerate10K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(workload.Params{
			DataSize: 10000, TuplesPerResult: 5, Delta: 0.1,
			Theta: 0.5, Beta: 0.6, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartition5K(b *testing.B) {
	in := genInstance(b, 5000, 5, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strategy.Partition(in, 1, 64)
	}
}

func BenchmarkAblationParallelDnc(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		solveB(b, &strategy.DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64},
			func() *strategy.Instance { return genInstance(b, 5000, 5, 1) })
	})
	b.Run("parallel", func(b *testing.B) {
		solveWide(b, strategy.NewDivideAndConquer(), runtime.GOMAXPROCS(0),
			func() *strategy.Instance { return genInstance(b, 5000, 5, 1) })
	})
}

// BenchmarkDnCParallel drives the D&C worker pool at Table 4 defaults;
// run with -cpu 1,2,4 (`make bench-parallel`) to measure it across
// GOMAXPROCS settings. workersAuto sizes the pool to GOMAXPROCS (the
// -workers 0 default) so it tracks -cpu; the fixed-width variants pin
// the pool independent of -cpu to separate queueing overhead from real
// parallelism. Every variant produces a bit-identical plan.
func BenchmarkDnCParallel(b *testing.B) {
	mk := func() *strategy.Instance { return genInstance(b, 10000, 5, 1) }
	b.Run("serial", func(b *testing.B) {
		solveWide(b, strategy.NewDivideAndConquer(), 1, mk)
	})
	b.Run("workersAuto", func(b *testing.B) {
		solveWide(b, strategy.NewDivideAndConquer(), runtime.GOMAXPROCS(0), mk)
	})
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			solveWide(b, strategy.NewDivideAndConquer(), w, mk)
		})
	}
}

// BenchmarkDnCSingletonGroups solves 2 000 results that share no base
// tuple — the shape of a DISTINCT join's withheld rows (two thirds
// (a ∧ b), one third a supplier s with two orders), which γ=1 partitions
// into 2 000 one-result groups below τ. Per-group overhead is the whole
// cost here: run with -benchmem to see what a group sub-solve allocates.
// unfactored builds the third as the plain fold (a ∧ s) ∨ (b ∧ s), which
// the kernel prices by Shannon expansion on s; factored as the DISTINCT
// fold builds it, s ∧ (a ∨ b), read-once; ctx solves the factored
// instance under a cancellable context, as a server does, so every
// checkpoint is live.
func BenchmarkDnCSingletonGroups(b *testing.B) {
	mk := func(fold func(...*lineage.Expr) *lineage.Expr) *strategy.Instance {
		r := rand.New(rand.NewSource(9))
		in := &strategy.Instance{Beta: 0.5, Delta: 0.1, Need: 1600}
		v := func() *lineage.Expr {
			id := lineage.Var(len(in.Base) + 1)
			in.Base = append(in.Base, strategy.BaseTuple{Var: id, P: 0.3 + 0.35*r.Float64(), Cost: cost.Linear{Rate: 1 + 99*r.Float64()}})
			return lineage.NewVar(id)
		}
		for ri := 0; ri < 2000; ri++ {
			f := lineage.And(v(), v())
			if ri%3 == 2 {
				s := v()
				f = fold(lineage.And(v(), s), lineage.And(v(), s))
			}
			in.Results = append(in.Results, strategy.Result{ID: ri, Formula: f})
		}
		return in
	}
	unfactored, factored := mk(lineage.Or), mk(lineage.OrFactored)
	b.Run("unfactored", func(b *testing.B) {
		solveB(b, strategy.NewDivideAndConquer(), func() *strategy.Instance { return unfactored })
	})
	b.Run("factored", func(b *testing.B) {
		solveB(b, strategy.NewDivideAndConquer(), func() *strategy.Instance { return factored })
	})
	b.Run("ctx", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := strategy.NewDivideAndConquer().SolveContext(ctx, factored, strategy.Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Compiled lineage kernel vs the reference tree walk. ---

// BenchmarkCompiledProbDeriv isolates the evaluation layer: one fused
// compiled probability+derivative sweep against the tree walk's
// Prob + Derivatives on a read-once Table 4 formula.
func BenchmarkCompiledProbDeriv(b *testing.B) {
	in := genInstance(b, 1000, 5, 1)
	e := in.Results[0].Formula
	assign := lineage.MapAssignment{}
	for _, v := range e.Vars() {
		assign[v] = 0.1
	}
	b.Run("treewalk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lineage.ProbIndependent(e, assign)
			lineage.Derivatives(e, assign)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		p, err := lineage.CompileExact(e, lineage.DefaultSharedLimit)
		if err != nil {
			b.Fatal(err)
		}
		m := lineage.NewMachine(p)
		probs := make([]float64, p.NumSlots())
		deriv := make([]float64, p.NumSlots())
		for i, v := range p.Vars() {
			probs[i] = assign[v]
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ProbDeriv(probs, deriv)
		}
	})
}

// --- Storage: the access leaf over a serving-sized table. ---

// ordersCSV generates the serving benchmark's Orders shape: rows of
// Supplier (TEXT, 20K values), Item (INTEGER, 1000 values) and Amount
// (REAL), each with a confidence and a cost rate.
func ordersCSV(rows int) []byte {
	const suppliers, items = 20_000, 1000
	r := rand.New(rand.NewSource(1))
	var csv bytes.Buffer
	csv.WriteString("Supplier,Item,Amount,_confidence,_cost_rate\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "S%05d,%d,%.2f,%.4f,%.2f\n", r.Intn(suppliers), r.Intn(items), 100*r.Float64(), 0.05+0.9*r.Float64(), 1+99*r.Float64())
	}
	return csv.Bytes()
}

// BenchmarkLoadCSV loads 200K Orders rows through LoadCSV into a fresh
// table per op. Beside B/op and allocs/op (everything the load
// allocates, garbage included) it reports live-B/row: what the loaded
// table still holds after a forced collection.
func BenchmarkLoadCSV(b *testing.B) {
	const rows = 200_000
	csv := ordersCSV(rows)
	schema := relation.NewSchema(
		relation.Column{Name: "Supplier", Type: relation.TypeString},
		relation.Column{Name: "Item", Type: relation.TypeInt},
		relation.Column{Name: "Amount", Type: relation.TypeFloat})
	load := func() *relation.Catalog {
		cat := relation.NewCatalog()
		tab, err := cat.CreateTable("Orders", schema)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relation.LoadCSV(tab, bytes.NewReader(csv)); err != nil {
			b.Fatal(err)
		}
		return cat
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cat := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	// csv was live at before; keeping it live at after leaves it out of
	// the delta.
	runtime.KeepAlive(cat)
	runtime.KeepAlive(csv)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/rows, "live-B/row")
}

// BenchmarkIndexProbe times one hash-index probe through the access
// leaf over the serving benchmark's shapes: a point probe of
// Suppliers(Name), 20K suppliers, and a walk of an Orders(Supplier)
// chain, ≈10 of 200K orders. Each op probes the next of 64 keys with a
// plan built beforehand; allocs/op is what RunAt builds for the result
// rows, as the probe itself allocates nothing.
func BenchmarkIndexProbe(b *testing.B) {
	dir := b.TempDir()
	var sup bytes.Buffer
	sup.WriteString("Name,Region,Rating,_confidence,_cost_rate\n")
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&sup, "S%05d,R%02d,%.2f,0.5,2\n", i, i%20, 1+float64(i%400)/100)
	}
	files := map[string][]byte{"Suppliers": sup.Bytes(), "Orders": ordersCSV(200_000)}
	cat := relation.NewCatalog()
	for name, data := range files {
		file := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			b.Fatal(err)
		}
		if _, err := relation.LoadCSVFile(cat, name, file); err != nil {
			b.Fatal(err)
		}
	}
	for _, tc := range []struct{ name, table, column string }{
		{"suppliers_name", "Suppliers", "Name"},
		{"orders_supplier", "Orders", "Supplier"},
	} {
		tab, err := cat.Table(tc.table)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.CreateIndex(tc.column); err != nil {
			b.Fatal(err)
		}
		col, err := relation.NewColRef(tab.Schema(), "", tc.column)
		if err != nil {
			b.Fatal(err)
		}
		ops := make([]relation.Operator, 64)
		for i := range ops {
			k := relation.String_(fmt.Sprintf("S%05d", 313*i%20_000))
			ops[i] = relation.Filter(tab.Scan(), &relation.Binary{Op: relation.OpEq, Left: col, Right: relation.Const{Value: k}})
			if !relation.ProbesIndex(ops[i]) {
				b.Fatalf("%s: the filter does not probe the index", tc.name)
			}
		}
		b.Run(tc.name, func(b *testing.B) {
			rows := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := relation.RunAt(ops[i%len(ops)], cat.Version())
				if err != nil {
					b.Fatal(err)
				}
				rows += len(out)
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}

// BenchmarkLeafScan times the access leaf alone over the serving
// benchmark's Orders shape — 200K rows loaded through LoadCSVFile, the
// Supplier column indexed: Item = k keeps ≈200 rows, Amount > a ≈15K,
// and an equality on Supplier reads one ≈10-row index bucket. Run with
// -benchmem; rows/op must match across the commits compared.
func BenchmarkLeafScan(b *testing.B) {
	csv := ordersCSV(200_000)
	file := filepath.Join(b.TempDir(), "orders.csv")
	if err := os.WriteFile(file, csv, 0o644); err != nil {
		b.Fatal(err)
	}
	cat := relation.NewCatalog()
	if _, err := relation.LoadCSVFile(cat, "Orders", file); err != nil {
		b.Fatal(err)
	}
	tab, err := cat.Table("Orders")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tab.CreateIndex("Supplier"); err != nil {
		b.Fatal(err)
	}
	cmp := func(op relation.BinaryOp, name string, k relation.Value) relation.Expr {
		col, err := relation.NewColRef(tab.Schema(), "", name)
		if err != nil {
			b.Fatal(err)
		}
		return &relation.Binary{Op: op, Left: col, Right: relation.Const{Value: k}}
	}
	for _, tc := range []struct {
		name string
		pred relation.Expr
	}{
		{"item_eq", cmp(relation.OpEq, "Item", relation.Int(42))},
		{"amount_gt", cmp(relation.OpGt, "Amount", relation.Float(92.5))},
		{"supplier_probe", cmp(relation.OpEq, "Supplier", relation.String_("S00042"))},
	} {
		b.Run(tc.name, func(b *testing.B) {
			op := relation.Filter(tab.Scan(), tc.pred)
			rows := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := relation.RunAt(op, cat.Version())
				if err != nil {
					b.Fatal(err)
				}
				rows = len(out)
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
