// Package bench implements the paper-reproduction experiment harness:
// one experiment per table and figure of the evaluation section
// (Section 5, Figure 11 panels (a)–(f), Table 4 parameters), plus the
// ablation studies DESIGN.md calls out. cmd/benchrunner drives it from
// the command line and bench_test.go wraps the same experiments as
// testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"pcqe/internal/strategy"
	"pcqe/internal/workload"
)

// Table is a formatted experiment result: one row per x-value, one
// column per measured series.
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	Rows    []RowData
	// Notes carries the paper-shape expectation for EXPERIMENTS.md.
	Notes string
}

// RowData is one row of measurements keyed by column name.
type RowData struct {
	X      string
	Values map[string]float64
}

// Format renders the table as aligned text. Durations are in seconds,
// costs in cost units.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.X) > widths[0] {
			widths[0] = len(r.X)
		}
	}
	cells := func(r RowData) []string {
		out := []string{r.X}
		for _, c := range t.Columns {
			v, ok := r.Values[c]
			if !ok {
				out = append(out, "-")
				continue
			}
			out = append(out, fmt.Sprintf("%.4g", v))
		}
		return out
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range cells(r) {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(append([]string{t.XLabel}, t.Columns...))
	for _, r := range t.Rows {
		writeRow(cells(r))
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "shape: %s\n", t.Notes)
	}
	return b.String()
}

// Options tune the experiment scale.
type Options struct {
	// Full runs the paper's complete parameter grid (several minutes);
	// otherwise a reduced grid that finishes quickly.
	Full bool
	// Seed makes workloads reproducible.
	Seed int64
	// Workers sets the D&C worker-pool width for the parallel scaling
	// experiment's size sweep (0 = GOMAXPROCS).
	Workers int
}

// DefaultOptions returns the quick configuration with seed 1.
func DefaultOptions() Options { return Options{Seed: 1} }

// timeSolve runs the solver once, uninterrupted, on the given worker-pool
// width (0 = serial) and reports duration and plan.
func timeSolve(s strategy.Solver, in *strategy.Instance, workers int) (time.Duration, *strategy.Plan, error) {
	start := time.Now()
	plan, err := s.SolveContext(context.Background(), in, strategy.Budget{Workers: workers})
	return time.Since(start), plan, err
}

// tinyInstance builds the Figure 11(a)/(d) configuration: 10 base
// tuples, results over 5 tuples each, at least 3 results required at
// β = 0.6. The initial confidences sit at 0.3–0.5 instead of the
// paper's 0.1 so each tuple's δ-grid domain has ~6 values rather than
// ~10; the exhaustive Naive baseline then finishes in seconds on modern
// hardware instead of the paper's minutes on 2008 hardware, while the
// relative ordering of the pruning variants — the figure's point — is
// unchanged (run with Full for bigger domains).
func tinyInstance(seed int64, full bool) (*strategy.Instance, error) {
	p := workload.Params{
		DataSize:        10,
		TuplesPerResult: 5,
		Delta:           0.1,
		Theta:           0.5,
		Beta:            0.6,
		Results:         6,
		ConfLo:          0.3,
		ConfHi:          0.5,
		Seed:            seed,
	}
	if full {
		p.ConfLo, p.ConfHi = 0.15, 0.35
	}
	in, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	in.Need = 3
	return in, nil
}

// heuristicVariants are the Figure 11(a)/(d) bars.
func heuristicVariants(greedyBound bool) []struct {
	name string
	h    *strategy.Heuristic
} {
	return []struct {
		name string
		h    *strategy.Heuristic
	}{
		{"Naive", &strategy.Heuristic{GreedyBound: greedyBound}},
		{"H1", &strategy.Heuristic{UseH1: true, GreedyBound: greedyBound}},
		{"H2", &strategy.Heuristic{UseH2: true, GreedyBound: greedyBound}},
		{"H3", &strategy.Heuristic{UseH3: true, GreedyBound: greedyBound}},
		{"H4", &strategy.Heuristic{UseH4: true, GreedyBound: greedyBound}},
		{"All", &strategy.Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true, GreedyBound: greedyBound}},
	}
}

// Fig11a measures the heuristic variants without the greedy-seeded
// bound (Figure 11(a)): response time per variant.
func Fig11a(opt Options) (*Table, error) {
	return figHeuristicVariants(opt, false,
		"Figure 11(a): heuristic variants, no greedy bound",
		"every heuristic beats Naive; All is fastest by a wide margin")
}

// Fig11d measures the heuristic variants with the greedy-seeded bound
// (Figure 11(d)).
func Fig11d(opt Options) (*Table, error) {
	return figHeuristicVariants(opt, true,
		"Figure 11(d): heuristic variants, greedy-seeded bound",
		"the greedy bound speeds up every variant versus Figure 11(a)")
}

func figHeuristicVariants(opt Options, bound bool, title, notes string) (*Table, error) {
	t := &Table{
		Title:   title,
		XLabel:  "variant",
		Columns: []string{"time_s", "nodes", "cost"},
		Notes:   notes,
	}
	// Average over a few seeds: tiny instances vary a lot.
	seeds := []int64{opt.Seed, opt.Seed + 1, opt.Seed + 2}
	if opt.Full {
		for s := opt.Seed + 3; s < opt.Seed+10; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, v := range heuristicVariants(bound) {
		var total time.Duration
		var nodes, runs int
		var cost float64
		for _, seed := range seeds {
			in, err := tinyInstance(seed, opt.Full)
			if err != nil {
				return nil, err
			}
			d, plan, err := timeSolve(v.h, in, 0)
			if err == strategy.ErrInfeasible {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", v.name, seed, err)
			}
			total += d
			nodes += plan.Nodes
			cost += plan.Cost
			runs++
		}
		if runs == 0 {
			continue
		}
		t.Rows = append(t.Rows, RowData{X: v.name, Values: map[string]float64{
			"time_s": total.Seconds() / float64(runs),
			"nodes":  float64(nodes) / float64(runs),
			"cost":   cost / float64(runs),
		}})
	}
	return t, nil
}

// Fig11be measures the one-phase vs two-phase greedy over growing data
// sizes and returns Figure 11(b) (response time) and Figure 11(e)
// (minimum cost).
func Fig11be(opt Options) (*Table, *Table, error) {
	sizes := []int{1000, 3000, 5000}
	if opt.Full {
		sizes = []int{1000, 3000, 5000, 7000, 9000}
	}
	timeT := &Table{
		Title:   "Figure 11(b): greedy one-phase vs two-phase, response time",
		XLabel:  "data size",
		Columns: []string{"one-phase_s", "two-phase_s"},
		Notes:   "both versions have similar response time (phase 2 overhead is negligible)",
	}
	costT := &Table{
		Title:   "Figure 11(e): greedy one-phase vs two-phase, cost",
		XLabel:  "data size",
		Columns: []string{"one-phase", "two-phase", "reduction_%"},
		Notes:   "the second phase reduces cost (the paper reports >30%)",
	}
	for _, n := range sizes {
		in1, err := workload.Generate(workload.Params{
			DataSize: n, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: opt.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		in2, err := workload.Generate(workload.Params{
			DataSize: n, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: opt.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		d1, p1, err := timeSolve(&strategy.Greedy{SkipRefinement: true}, in1, 0)
		if err != nil {
			return nil, nil, err
		}
		d2, p2, err := timeSolve(&strategy.Greedy{}, in2, 0)
		if err != nil {
			return nil, nil, err
		}
		x := sizeLabel(n)
		timeT.Rows = append(timeT.Rows, RowData{X: x, Values: map[string]float64{
			"one-phase_s": d1.Seconds(),
			"two-phase_s": d2.Seconds(),
		}})
		costT.Rows = append(costT.Rows, RowData{X: x, Values: map[string]float64{
			"one-phase":   p1.Cost,
			"two-phase":   p2.Cost,
			"reduction_%": 100 * (p1.Cost - p2.Cost) / p1.Cost,
		}})
	}
	return timeT, costT, nil
}

// Fig11cf measures all three algorithms over the full size sweep and
// returns Figure 11(c) (response time) and Figure 11(f) (minimum cost).
// The heuristic runs only on the tiny size (its complexity is
// exponential); greedy is skipped beyond 50K in quick mode.
func Fig11cf(opt Options) (*Table, *Table, error) {
	sizes := []int{10, 1000, 5000, 10000}
	if opt.Full {
		sizes = []int{10, 1000, 5000, 10000, 50000, 100000}
	}
	timeT := &Table{
		Title:   "Figure 11(c): all algorithms, response time vs data size",
		XLabel:  "data size",
		Columns: []string{"heuristic_s", "greedy_s", "dnc_s"},
		Notes:   "heuristic only feasible at tiny sizes; greedy wins small, D&C scales best and overtakes as size grows",
	}
	costT := &Table{
		Title:   "Figure 11(f): all algorithms, minimum cost vs data size",
		XLabel:  "data size",
		Columns: []string{"heuristic", "greedy", "dnc"},
		Notes:   "heuristic is optimal where it runs; greedy and D&C land slightly above the optimum and close to each other",
	}
	for _, n := range sizes {
		tuples := 5
		if n >= 10000 {
			tuples = n / 1000
		}
		gen := func() (*strategy.Instance, error) {
			// The tiny size is the heuristic-friendly Figure 11(a)
			// instance; larger sizes follow Table 4.
			if n <= 10 {
				return tinyInstance(opt.Seed, opt.Full)
			}
			return workload.Generate(workload.Params{
				DataSize: n, TuplesPerResult: tuples, Delta: 0.1,
				Theta: 0.5, Beta: 0.6, Seed: opt.Seed,
			})
		}
		x := sizeLabel(n)
		timeVals := map[string]float64{}
		costVals := map[string]float64{}

		if n <= 10 {
			in, err := gen()
			if err != nil {
				return nil, nil, err
			}
			d, plan, err := timeSolve(strategy.NewHeuristic(), in, 0)
			if err != nil {
				return nil, nil, err
			}
			timeVals["heuristic_s"] = d.Seconds()
			costVals["heuristic"] = plan.Cost
		}
		{
			in, err := gen()
			if err != nil {
				return nil, nil, err
			}
			d, plan, err := timeSolve(&strategy.Greedy{}, in, 0)
			if err != nil {
				return nil, nil, err
			}
			timeVals["greedy_s"] = d.Seconds()
			costVals["greedy"] = plan.Cost
		}
		{
			in, err := gen()
			if err != nil {
				return nil, nil, err
			}
			d, plan, err := timeSolve(strategy.NewDivideAndConquer(), in, 0)
			if err != nil {
				return nil, nil, err
			}
			timeVals["dnc_s"] = d.Seconds()
			costVals["dnc"] = plan.Cost
		}
		timeT.Rows = append(timeT.Rows, RowData{X: x, Values: timeVals})
		costT.Rows = append(costT.Rows, RowData{X: x, Values: costVals})
	}
	return timeT, costT, nil
}

// Table4 renders the evaluation parameters (Table 4 of the paper).
func Table4() *Table {
	p := workload.DefaultParams()
	t := &Table{
		Title:   "Table 4: parameters and their settings (defaults in use)",
		XLabel:  "parameter",
		Columns: []string{"default"},
		Notes:   "grid: sizes 10..100K, tuples/result 5..100, δ=0.1, θ=50%, β=0.6",
	}
	t.Rows = []RowData{
		{X: "Data size", Values: map[string]float64{"default": float64(p.DataSize)}},
		{X: "No. of base tuples per result", Values: map[string]float64{"default": float64(p.TuplesPerResult)}},
		{X: "Confidence increment step δ", Values: map[string]float64{"default": p.Delta}},
		{X: "Percentage of required results θ", Values: map[string]float64{"default": p.Theta}},
		{X: "Confidence level β", Values: map[string]float64{"default": p.Beta}},
	}
	return t
}

func sizeLabel(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return fmt.Sprintf("%dK", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

// Run dispatches an experiment by name; Names lists the ones it knows.
func Run(name string, opt Options) ([]*Table, error) {
	switch strings.ToLower(strings.TrimPrefix(name, "fig")) {
	case "table4":
		return []*Table{Table4()}, nil
	case "11a":
		t, err := Fig11a(opt)
		return []*Table{t}, err
	case "11d":
		t, err := Fig11d(opt)
		return []*Table{t}, err
	case "11b":
		t, _, err := Fig11be(opt)
		return []*Table{t}, err
	case "11e":
		_, t, err := Fig11be(opt)
		return []*Table{t}, err
	case "11c":
		t, _, err := Fig11cf(opt)
		return []*Table{t}, err
	case "11f":
		_, t, err := Fig11cf(opt)
		return []*Table{t}, err
	case "ablations":
		return Ablations(opt)
	case "pipeline":
		t, err := FrameworkOverhead(opt)
		return []*Table{t}, err
	case "parallel":
		return FigParallel(opt)
	case "planner":
		return FigPlanner(opt)
	case "all":
		var out []*Table
		out = append(out, Table4())
		a, err := Fig11a(opt)
		if err != nil {
			return nil, err
		}
		d, err := Fig11d(opt)
		if err != nil {
			return nil, err
		}
		b, e, err := Fig11be(opt)
		if err != nil {
			return nil, err
		}
		c, f, err := Fig11cf(opt)
		if err != nil {
			return nil, err
		}
		out = append(out, a, b, c, d, e, f)
		abl, err := Ablations(opt)
		if err != nil {
			return nil, err
		}
		out = append(out, abl...)
		pipe, err := FrameworkOverhead(opt)
		if err != nil {
			return nil, err
		}
		out = append(out, pipe)
		par, err := FigParallel(opt)
		if err != nil {
			return nil, err
		}
		out = append(out, par...)
		pl, err := FigPlanner(opt)
		if err != nil {
			return nil, err
		}
		return append(out, pl...), nil
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (try table4, 11a..11f, ablations, all)", name)
}

// Names lists all experiment names Run accepts, sorted.
func Names() []string {
	names := []string{"table4", "11a", "11b", "11c", "11d", "11e", "11f", "ablations", "pipeline", "parallel", "planner", "all"}
	sort.Strings(names)
	return names
}
