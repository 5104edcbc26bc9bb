package bench

import (
	"fmt"
	"runtime"

	"pcqe/internal/strategy"
	"pcqe/internal/workload"
)

// FigParallel is the parallel D&C scaling study: (1) speedup versus
// worker-pool width at a fixed data size, and (2) response time versus
// data size (toward N = 1M in -full mode) at the configured width. The
// worker pool dispatches whole γ-groups, so the achievable speedup is
// bounded by the group-size distribution (and, of course, by the number
// of physical cores — on a single-core host every width must produce
// the same cost and must not regress wall-clock). The solver is the
// benchmark configuration (strategy.NewDivideAndConquer): γ=1 merges
// aggressively but MaxGroupResults caps group size so the task queue
// holds many comparable groups — the shape the worker pool targets.
func FigParallel(opt Options) ([]*Table, error) {
	speedT, err := figParallelWorkers(opt)
	if err != nil {
		return nil, err
	}
	sizeT, err := figParallelSizes(opt)
	if err != nil {
		return nil, err
	}
	return []*Table{speedT, sizeT}, nil
}

func parallelParams(n int, seed int64) workload.Params {
	// Constant tuples-per-result keeps every group inside the compiled
	// kernels' shared-variable limit as N grows toward 1M.
	return workload.Params{
		DataSize: n, TuplesPerResult: 5, Delta: 0.1, Theta: 0.5, Beta: 0.6, Seed: seed,
	}
}

// figParallelWorkers fixes the data size and sweeps the pool width.
func figParallelWorkers(opt Options) (*Table, error) {
	n := 20000
	if opt.Full {
		n = 100000
	}
	t := &Table{
		Title:   fmt.Sprintf("Parallel scaling: D&C speedup vs workers (data size %s, GOMAXPROCS=%d)", sizeLabel(n), runtime.GOMAXPROCS(0)),
		XLabel:  "workers",
		Columns: []string{"time_s", "speedup", "cost_delta"},
		Notes:   "bit-identical plans at every width (cost_delta must be exactly 0); speedup tracks min(workers, cores) until the largest group dominates",
	}
	var base float64
	var baseCost float64
	for _, w := range []int{1, 2, 4, 8} {
		in, err := workload.Generate(parallelParams(n, opt.Seed))
		if err != nil {
			return nil, err
		}
		d, plan, err := timeSolve(strategy.NewDivideAndConquer(), in, w)
		if err != nil {
			return nil, err
		}
		if w == 1 {
			base = d.Seconds()
			baseCost = plan.Cost
		}
		t.Rows = append(t.Rows, RowData{X: fmt.Sprintf("%d", w), Values: map[string]float64{
			"time_s":     d.Seconds(),
			"speedup":    base / d.Seconds(),
			"cost_delta": plan.Cost - baseCost,
		}})
	}
	return t, nil
}

// figParallelSizes fixes the pool width and grows the data size.
func figParallelSizes(opt Options) (*Table, error) {
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sizes := []int{10000, 20000}
	if opt.Full {
		sizes = []int{10000, 50000, 100000, 250000, 500000, 1000000}
	}
	t := &Table{
		Title:   fmt.Sprintf("Parallel scaling: D&C response time vs data size (%d workers)", workers),
		XLabel:  "data size",
		Columns: []string{"time_s", "cost", "tuples_per_s"},
		Notes:   "near-linear time in N at constant tuples/result; the compiled lineage kernels keep per-group constants flat toward N=1M",
	}
	for _, n := range sizes {
		in, err := workload.Generate(parallelParams(n, opt.Seed))
		if err != nil {
			return nil, err
		}
		d, plan, err := timeSolve(strategy.NewDivideAndConquer(), in, workers)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, RowData{X: sizeLabel(n), Values: map[string]float64{
			"time_s":       d.Seconds(),
			"cost":         plan.Cost,
			"tuples_per_s": float64(n) / d.Seconds(),
		}})
	}
	return t, nil
}
