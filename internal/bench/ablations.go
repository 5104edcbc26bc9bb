package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pcqe/internal/lineage"
	"pcqe/internal/strategy"
	"pcqe/internal/workload"
)

// Ablations runs the design-choice studies DESIGN.md lists: incremental
// vs full-rescan greedy gains, the D&C γ threshold, exact Shannon vs
// independence-approximate probability, the H1 ordering direction, and
// the D&C τ cutoff.
func Ablations(opt Options) ([]*Table, error) {
	var out []*Table
	for _, f := range []func(Options) (*Table, error){
		AblationGainIncremental,
		AblationGamma,
		AblationShannon,
		AblationOrdering,
		AblationTau,
		AblationParallel,
	} {
		t, err := f(opt)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// AblationGainIncremental compares the paper-faithful full-rescan gain
// loop against the incremental variant that recomputes only dirty
// tuples. Both produce the same plan; the incremental one is faster.
func AblationGainIncremental(opt Options) (*Table, error) {
	sizes := []int{1000, 5000}
	if opt.Full {
		sizes = []int{1000, 5000, 10000, 20000}
	}
	t := &Table{
		Title:   "Ablation: greedy gain recomputation (full rescan vs incremental)",
		XLabel:  "data size",
		Columns: []string{"rescan_s", "incremental_s", "speedup", "cost_delta"},
		Notes:   "identical plans; incremental gain maintenance is strictly faster",
	}
	for _, n := range sizes {
		gen := func() (*strategy.Instance, error) {
			return workload.Generate(workload.Params{
				DataSize: n, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: opt.Seed,
			})
		}
		in1, err := gen()
		if err != nil {
			return nil, err
		}
		d1, p1, err := timeSolve(&strategy.Greedy{}, in1, 0)
		if err != nil {
			return nil, err
		}
		in2, err := gen()
		if err != nil {
			return nil, err
		}
		d2, p2, err := timeSolve(&strategy.Greedy{Incremental: true}, in2, 0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, RowData{X: sizeLabel(n), Values: map[string]float64{
			"rescan_s":      d1.Seconds(),
			"incremental_s": d2.Seconds(),
			"speedup":       d1.Seconds() / d2.Seconds(),
			"cost_delta":    p1.Cost - p2.Cost,
		}})
	}
	return t, nil
}

// AblationGamma sweeps the D&C partition threshold γ.
func AblationGamma(opt Options) (*Table, error) {
	n := 5000
	if opt.Full {
		n = 10000
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: D&C partition threshold γ (data size %s)", sizeLabel(n)),
		XLabel:  "gamma",
		Columns: []string{"time_s", "cost", "groups"},
		Notes:   "small γ merges aggressively (fewer, larger groups); large γ approaches per-result solving",
	}
	for _, gamma := range []int{1, 2, 3, 5} {
		in, err := workload.Generate(workload.Params{
			DataSize: n, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: opt.Seed,
		})
		if err != nil {
			return nil, err
		}
		groups := strategy.Partition(in, gamma, 0)
		d, plan, err := timeSolve(&strategy.DivideAndConquer{Gamma: gamma, Tau: 8}, in, 0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, RowData{X: fmt.Sprintf("%d", gamma), Values: map[string]float64{
			"time_s": d.Seconds(),
			"cost":   plan.Cost,
			"groups": float64(len(groups)),
		}})
	}
	return t, nil
}

// AblationShannon compares exact probability — priced as the engine
// pays for it on a confidence-cache miss: CompileExact, then one
// Machine.Prob over the 2^S pivot assignments — against the
// independence approximation.
func AblationShannon(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Ablation: exact Shannon expansion vs independence approximation",
		XLabel:  "shared vars",
		Columns: []string{"exact_us", "approx_us", "max_abs_error"},
		Notes:   "the approximation is faster but biased under sharing; the engine uses exact evaluation (compile + 2^S kernel passes); rows 12 and 16 are the join DNF of S suppliers × 2 orders that DISTINCT over a join emits",
	}
	for _, shared := range []int{0, 2, 4, 8, 12, 16} {
		e, assign := sharedFormula(shared, max(12, 2*shared))
		// Many evaluations for stable microsecond numbers, fewer as 2^S grows.
		reps := max(2, 2000>>shared)
		var exact, approx float64
		start := time.Now()
		for i := 0; i < reps; i++ {
			prog, err := lineage.CompileExact(e, lineage.DefaultSharedLimit)
			if err != nil {
				return nil, err
			}
			probs := make([]float64, prog.NumSlots())
			for s, v := range prog.Vars() {
				probs[s] = assign.ProbOf(v)
			}
			exact = lineage.NewMachine(prog).Prob(probs)
		}
		exactDur := time.Since(start)
		start = time.Now()
		for i := 0; i < reps; i++ {
			approx = lineage.ProbIndependent(e, assign)
		}
		approxDur := time.Since(start)
		t.Rows = append(t.Rows, RowData{X: fmt.Sprintf("%d", shared), Values: map[string]float64{
			"exact_us":      float64(exactDur.Microseconds()) / float64(reps),
			"approx_us":     float64(approxDur.Microseconds()) / float64(reps),
			"max_abs_error": math.Abs(exact - approx),
		}})
	}
	return t, nil
}

// sharedFormula builds an OR of AND-pairs in which `shared` variables
// appear in two clauses each; with clauses = 2·shared that is the join
// DNF ∨ₙᵢ(Sₙ ∧ Oₙᵢ) of `shared` suppliers with two orders each.
func sharedFormula(shared, clauses int) (*lineage.Expr, lineage.Assignment) {
	assign := lineage.MapAssignment{}
	fresh := func() *lineage.Expr {
		v := lineage.Var(len(assign) + 1)
		assign[v] = 0.5
		return lineage.NewVar(v)
	}
	sharedVars := make([]*lineage.Expr, shared)
	for i := range sharedVars {
		sharedVars[i] = fresh()
	}
	var cl []*lineage.Expr
	for i := 0; i < clauses; i++ {
		a := fresh()
		b := fresh()
		if i < shared {
			a = sharedVars[i]
		}
		if i >= clauses-shared {
			b = sharedVars[i-(clauses-shared)]
		}
		cl = append(cl, lineage.And(a, b))
	}
	return lineage.Or(cl...), assign
}

// AblationOrdering compares the H1 descending-costβ variable order with
// ascending and instance order on the tiny heuristic workload.
func AblationOrdering(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Ablation: heuristic variable ordering (search-order sensitivity)",
		XLabel:  "ordering",
		Columns: []string{"time_s", "nodes"},
		Notes:   "H1's descending-costβ order explores fewer nodes than instance order",
	}
	seeds := []int64{opt.Seed, opt.Seed + 1, opt.Seed + 2}
	type variant struct {
		name string
		h    *strategy.Heuristic
	}
	// Ascending order is approximated by disabling H1: the workload
	// generator emits tuples in random cost order, so "none" is the
	// unordered baseline and "H1" the paper's order.
	for _, v := range []variant{
		{"instance-order", &strategy.Heuristic{UseH2: true, UseH3: true, UseH4: true}},
		{"H1-desc-costβ", &strategy.Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true}},
	} {
		var total time.Duration
		nodes := 0
		runs := 0
		for _, seed := range seeds {
			in, err := tinyInstance(seed, opt.Full)
			if err != nil {
				return nil, err
			}
			d, plan, err := timeSolve(v.h, in, 0)
			if err != nil {
				continue
			}
			total += d
			nodes += plan.Nodes
			runs++
		}
		if runs == 0 {
			continue
		}
		t.Rows = append(t.Rows, RowData{X: v.name, Values: map[string]float64{
			"time_s": total.Seconds() / float64(runs),
			"nodes":  float64(nodes) / float64(runs),
		}})
	}
	return t, nil
}

// AblationTau sweeps the D&C heuristic-refinement cutoff τ.
func AblationTau(opt Options) (*Table, error) {
	n := 1000
	t := &Table{
		Title:   fmt.Sprintf("Ablation: D&C heuristic cutoff τ (data size %s)", sizeLabel(n)),
		XLabel:  "tau",
		Columns: []string{"time_s", "cost"},
		Notes:   "larger τ runs exact search in more groups: more time, (weakly) lower cost",
	}
	for _, tau := range []int{0, 6, 10, 14} {
		in, err := workload.Generate(workload.Params{
			DataSize: n, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: opt.Seed,
		})
		if err != nil {
			return nil, err
		}
		d, plan, err := timeSolve(&strategy.DivideAndConquer{Gamma: 1, Tau: tau}, in, 0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, RowData{X: fmt.Sprintf("%d", tau), Values: map[string]float64{
			"time_s": d.Seconds(),
			"cost":   plan.Cost,
		}})
	}
	return t, nil
}

// AblationParallel compares sequential vs parallel D&C group solving.
func AblationParallel(opt Options) (*Table, error) {
	sizes := []int{5000}
	if opt.Full {
		sizes = []int{5000, 10000, 50000}
	}
	t := &Table{
		Title:   "Ablation: D&C group solving (sequential vs parallel workers)",
		XLabel:  "data size",
		Columns: []string{"sequential_s", "parallel_s", "speedup", "cost_delta"},
		Notes:   "identical costs; wall-clock gains require multiple cores (GOMAXPROCS>1) — on a single-core host the parallel path must simply not regress",
	}
	for _, n := range sizes {
		gen := func() (*strategy.Instance, error) {
			return workload.Generate(workload.Params{
				DataSize: n, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: opt.Seed,
			})
		}
		in1, err := gen()
		if err != nil {
			return nil, err
		}
		d1, p1, err := timeSolve(strategy.NewDivideAndConquer(), in1, 1)
		if err != nil {
			return nil, err
		}
		in2, err := gen()
		if err != nil {
			return nil, err
		}
		d2, p2, err := timeSolve(strategy.NewDivideAndConquer(), in2, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, RowData{X: sizeLabel(n), Values: map[string]float64{
			"sequential_s": d1.Seconds(),
			"parallel_s":   d2.Seconds(),
			"speedup":      d1.Seconds() / d2.Seconds(),
			"cost_delta":   p1.Cost - p2.Cost,
		}})
	}
	return t, nil
}
