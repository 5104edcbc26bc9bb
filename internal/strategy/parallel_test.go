package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
	"pcqe/internal/obs"
)

// clusteredInstance builds nClusters independent result clusters (5 base
// tuples and 3 results each, sharing tuples only within the cluster), so
// γ=1 partitioning yields exactly one group per cluster — the shape the
// worker pool distributes. Costs and confidences vary per seed.
func clusteredInstance(nClusters int, seed int64) *Instance {
	r := rand.New(rand.NewSource(seed))
	in := &Instance{Beta: 0.6, Delta: 0.1}
	v := func(i int) *lineage.Expr { return lineage.NewVar(lineage.Var(i)) }
	for c := 0; c < nClusters; c++ {
		base := c * 5
		for i := 1; i <= 5; i++ {
			in.Base = append(in.Base, BaseTuple{
				Var:  lineage.Var(base + i),
				P:    0.25 + 0.15*r.Float64(),
				Cost: cost.Linear{Rate: 1 + 40*r.Float64()},
			})
		}
		in.Results = append(in.Results,
			Result{ID: 3 * c, Formula: lineage.And(v(base+1), v(base+2))},
			Result{ID: 3*c + 1, Formula: lineage.Or(lineage.And(v(base+2), v(base+3)), lineage.And(v(base+3), v(base+4)))},
			Result{ID: 3*c + 2, Formula: lineage.And(v(base+4), v(base+5))},
		)
	}
	in.Need = 2 * nClusters
	return in
}

// requireBitIdentical fails the test unless a and b are the same plan
// bit for bit: every planned confidence, the cost, the satisfied set and
// the work accounting.
func requireBitIdentical(t *testing.T, label string, a, b *Plan) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: plan presence diverged: %v vs %v", label, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if len(a.NewP) != len(b.NewP) {
		t.Fatalf("%s: NewP length %d vs %d", label, len(a.NewP), len(b.NewP))
	}
	for i := range a.NewP {
		if math.Float64bits(a.NewP[i]) != math.Float64bits(b.NewP[i]) {
			t.Fatalf("%s: NewP[%d] = %v vs %v (not bit-identical)", label, i, a.NewP[i], b.NewP[i])
		}
	}
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		t.Fatalf("%s: Cost = %v vs %v (not bit-identical)", label, a.Cost, b.Cost)
	}
	if len(a.Satisfied) != len(b.Satisfied) {
		t.Fatalf("%s: Satisfied %v vs %v", label, a.Satisfied, b.Satisfied)
	}
	for i := range a.Satisfied {
		if a.Satisfied[i] != b.Satisfied[i] {
			t.Fatalf("%s: Satisfied %v vs %v", label, a.Satisfied, b.Satisfied)
		}
	}
	if a.Nodes != b.Nodes {
		t.Fatalf("%s: Nodes = %d vs %d", label, a.Nodes, b.Nodes)
	}
	if a.Degraded != b.Degraded || a.Partial != b.Partial {
		t.Fatalf("%s: Degraded/Partial = %d/%v vs %d/%v", label, a.Degraded, a.Partial, b.Degraded, b.Partial)
	}
}

// TestParallelDifferentialBitIdentical pins the tentpole determinism
// guarantee: the parallel D&C driver produces a bit-identical plan for
// every Budget.Workers, on the property-test corpus and on multi-group
// clustered instances.
func TestParallelDifferentialBitIdentical(t *testing.T) {
	dnc := func(w int) Solver { return widened{NewDivideAndConquer(), w} }
	corpus := make([]*Instance, 0, 48)
	r := rand.New(rand.NewSource(409))
	for i := 0; i < 40; i++ {
		corpus = append(corpus, randomInstance(r))
	}
	for seed := int64(1); seed <= 4; seed++ {
		corpus = append(corpus, clusteredInstance(10, seed))
	}
	for ci := range corpus {
		// Each solver run gets a fresh copy-free instance: solvers do not
		// mutate Instance fields other than sub-instances they build.
		serial, serr := solve(dnc(1), corpus[ci])
		if serr != nil && !errors.Is(serr, ErrInfeasible) {
			t.Fatalf("instance %d: serial solve failed: %v", ci, serr)
		}
		// Workers 0 must match the explicit serial width exactly.
		unset, uerr := solve(NewDivideAndConquer(), corpus[ci])
		if (serr == nil) != (uerr == nil) {
			t.Fatalf("instance %d: serial err %v vs Workers 0 err %v", ci, serr, uerr)
		}
		requireBitIdentical(t, fmt.Sprintf("instance %d workers=1 vs 0", ci), serial, unset)
		for _, w := range []int{2, 3, 8} {
			par, perr := solve(dnc(w), corpus[ci])
			if (serr == nil) != (perr == nil) {
				t.Fatalf("instance %d workers=%d: err %v vs serial err %v", ci, w, perr, serr)
			}
			requireBitIdentical(t, fmt.Sprintf("instance %d workers=%d", ci, w), serial, par)
		}
	}
}

// TestParallelWorkerPanicDegradesPerGroup injects a panic into every
// group's greedy phase 1 with a 4-worker pool: the driver must isolate
// each fault at its group boundary, fall back to the global greedy
// finish, and return a valid degraded plan — without leaking a single
// worker goroutine.
func TestParallelWorkerPanicDegradesPerGroup(t *testing.T) {
	before := runtime.NumGoroutine()
	in := clusteredInstance(8, 2)
	fault.Reset()
	fault.Enable()
	defer fault.Reset()
	fault.Register(SiteGreedyPhase1, func() { panic("injected worker group fault") })
	d := widened{&DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64}, 4}
	plan, err := d.SolveContext(context.Background(), in, Budget{})
	if err != nil {
		t.Fatalf("driver must absorb worker group panics, got %v", err)
	}
	if plan == nil {
		t.Fatal("expected a degraded plan")
	}
	if plan.Degraded < 1 {
		t.Fatalf("Degraded = %d, want ≥ 1", plan.Degraded)
	}
	if !plan.Partial {
		t.Fatal("degraded plan not tagged Partial")
	}
	if verr := in.Verify(plan); verr != nil {
		t.Fatalf("degraded plan fails Verify: %v", verr)
	}
	waitGoroutines(t, before)
}

// TestParallelWorkerBudgetExhaustionDegrades drives the 4-worker pool
// into budget exhaustion mid-solve and asserts the anytime contract
// holds with workers in flight: the outcome is a valid (possibly
// partial) plan and/or a typed budget error, and the pool always drains.
func TestParallelWorkerBudgetExhaustionDegrades(t *testing.T) {
	before := runtime.NumGoroutine()
	d := widened{&DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64}, 4}
	for _, b := range []Budget{
		{MaxPivots: 50},
		{MaxSteps: 5},
		{MaxPivots: 500, MaxSteps: 50},
	} {
		in := clusteredInstance(8, 3)
		plan, err := d.SolveContext(context.Background(), in, b)
		switch {
		case err == nil, errors.Is(err, ErrInfeasible), isBudgetErr(err):
		default:
			t.Fatalf("budget %+v: unexpected error %T %v", b, err, err)
		}
		if plan == nil && err == nil {
			t.Fatalf("budget %+v: nil plan and nil error", b)
		}
		if plan != nil {
			if verr := in.Verify(plan); verr != nil {
				t.Fatalf("budget %+v: plan fails Verify: %v", b, verr)
			}
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines gives exited workers a moment to be reaped, then fails
// on any that remain beyond the baseline.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before, %d after", before, g)
	}
}

// TestParallelBudgetAccountingGapFree hammers one root budget state
// through concurrent worker children and asserts the invariant the
// observability spans rely on: the root counters equal the sum of the
// children's exactly, including the increment that trips a limit.
func TestParallelBudgetAccountingGapFree(t *testing.T) {
	bs, cancel := newBudgetState("test", context.Background(), Budget{MaxNodes: 1 << 30})
	defer cancel()
	counts := []int{100, 250, 375, 500}
	children := make([]*budgetState, len(counts))
	var wg sync.WaitGroup
	for i, n := range counts {
		children[i] = bs.worker()
		wg.Add(1)
		go func(c *budgetState, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				c.node()
				c.step()
				c.pivot(2)
			}
		}(children[i], n)
	}
	wg.Wait()
	// Driver-side work lands directly on the root.
	const direct = 25
	for j := 0; j < direct; j++ {
		bs.node()
	}
	var sumN, sumS, sumP int64
	for i, c := range children {
		if got := c.nodes.Load(); got != int64(counts[i]) {
			t.Fatalf("child %d nodes = %d, want %d", i, got, counts[i])
		}
		sumN += c.nodes.Load()
		sumS += c.steps.Load()
		sumP += c.pivots.Load()
	}
	if got := bs.nodes.Load(); got != sumN+direct {
		t.Fatalf("root nodes = %d, want children %d + direct %d", got, sumN, direct)
	}
	if got := bs.steps.Load(); got != sumS {
		t.Fatalf("root steps = %d, want %d", got, sumS)
	}
	if got := bs.pivots.Load(); got != sumP {
		t.Fatalf("root pivots = %d, want %d", got, sumP)
	}
}

// TestParallelBudgetLimitTripStopsSiblings trips a shared node limit
// from worker children racing each other and asserts: the tripping
// increment is counted on both the child and the root (gap-free), the
// recorded cause names the right resource, sibling checkpoints unwind,
// and drain-mode suppresses the unwind for the driver's combine phase.
func TestParallelBudgetLimitTripStopsSiblings(t *testing.T) {
	const limit = 50
	bs, cancel := newBudgetState("test", context.Background(), Budget{MaxNodes: limit})
	defer cancel()
	children := []*budgetState{bs.worker(), bs.worker()}
	var wg sync.WaitGroup
	for _, c := range children {
		wg.Add(1)
		go func(c *budgetState) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(budgetStop); !ok {
						panic(r)
					}
				}
			}()
			for {
				c.node()
			}
		}(c)
	}
	wg.Wait()
	cause := bs.exceeded()
	if cause == nil || cause.Resource != ResourceNodes {
		t.Fatalf("cause = %+v, want nodes exhaustion", cause)
	}
	var sum int64
	for _, c := range children {
		sum += c.nodes.Load()
	}
	if got := bs.nodes.Load(); got != sum {
		t.Fatalf("root nodes = %d, children sum = %d (accounting gap)", got, sum)
	}
	if got := bs.nodes.Load(); got <= limit {
		t.Fatalf("root nodes = %d, the tripping increment (> %d) must be counted", got, limit)
	}
	// A fresh sibling's next checkpoint unwinds.
	sib := bs.worker()
	unwound := func() (u bool) {
		defer func() {
			if r := recover(); r != nil {
				_, u = r.(budgetStop)
				if !u {
					panic(r)
				}
			}
		}()
		sib.poll()
		return false
	}()
	if !unwound {
		t.Fatal("sibling checkpoint did not unwind after the shared limit tripped")
	}
	// Drain mode: checkpoints stop unwinding so the driver can combine.
	bs.drain()
	sib.poll()
	sib.node()
}

// TestParallelSpanCountersDecompose runs a parallel solve under a trace
// span and asserts the span topology the obs layer documents: the solve
// span carries the workers attribute, and its nodes/pivots/steps equal
// the driver span's plus the sum of the worker spans' — gap-free
// per-worker attribution. Group spans nest under worker spans and their
// per-worker group counts sum to the group-span total.
func TestParallelSpanCountersDecompose(t *testing.T) {
	const workers = 4
	root := obs.NewSpan("strategy")
	ctx := obs.ContextWithSpan(context.Background(), root)
	in := clusteredInstance(200, 5) // ≥ 50 groups for some worker: past maxGroupSpans
	d := widened{&DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64}, workers}
	// Any non-zero limit forces a budget state, which the span counters
	// are read from; the limit is far beyond what the solve needs.
	if _, err := d.SolveContext(ctx, in, Budget{MaxNodes: 1 << 30}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	solve := root.Find("solve:" + d.Name())
	if solve == nil {
		t.Fatalf("no solve span under root:\n%s", root.Tree())
	}
	if got := solve.Attr("workers"); got != workers {
		t.Fatalf("workers attr = %d, want %d", got, workers)
	}
	driver := solve.Find("driver")
	if driver == nil {
		t.Fatalf("no driver span:\n%s", root.Tree())
	}
	var workerSpans []*obs.Span
	for _, c := range solve.Children() {
		if c.Name() == "worker" {
			workerSpans = append(workerSpans, c)
		}
	}
	if len(workerSpans) != workers {
		t.Fatalf("worker spans = %d, want %d:\n%s", len(workerSpans), workers, root.Tree())
	}
	for _, key := range []string{"nodes", "pivots", "steps"} {
		sum := driver.Attr(key)
		for _, ws := range workerSpans {
			sum += ws.Attr(key)
		}
		if total := solve.Attr(key); total != sum {
			t.Errorf("%s: solve span %d != driver+workers %d\n%s", key, total, sum, root.Tree())
		}
	}
	// Groups are solved on workers (never the driver) and each worker
	// reports how many it handled: its "group" spans plus the count of
	// its "groups" rollup (the groups beyond maxGroupSpans).
	var groupSpans, rolled, groupsAttr int64
	for _, ws := range workerSpans {
		groupsAttr += ws.Attr("groups")
		for _, c := range ws.Children() {
			switch c.Name() {
			case "group":
				groupSpans++
			case "groups":
				rolled += c.Attr("count")
			}
		}
	}
	if groupSpans == 0 || rolled == 0 || groupSpans > workers*maxGroupSpans {
		t.Fatalf("group spans %d, rolled up %d under %d workers:\n%s", groupSpans, rolled, workers, root.Tree())
	}
	groupSpans += rolled
	if groupSpans != groupsAttr {
		t.Errorf("group spans %d != summed groups attrs %d", groupSpans, groupsAttr)
	}
	for _, c := range driver.Children() {
		if c.Name() == "group" {
			t.Errorf("group span attached to the driver span:\n%s", root.Tree())
		}
	}
}

// TestParallelSerialSpanShapeUnchanged pins that a serial solve keeps
// the pre-worker-pool span topology: no workers attribute, no driver or
// worker spans, groups directly under the solve span.
func TestParallelSerialSpanShapeUnchanged(t *testing.T) {
	root := obs.NewSpan("strategy")
	ctx := obs.ContextWithSpan(context.Background(), root)
	in := clusteredInstance(4, 5)
	if _, err := NewDivideAndConquer().SolveContext(ctx, in, Budget{MaxNodes: 1 << 30}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	solve := root.Find("solve:divide-and-conquer")
	if solve == nil {
		t.Fatalf("no solve span:\n%s", root.Tree())
	}
	if solve.Attr("workers") != 0 {
		t.Error("serial solve must not set a workers attr")
	}
	groups := 0
	for _, c := range solve.Children() {
		switch c.Name() {
		case "driver", "worker":
			t.Errorf("serial solve created a %s span:\n%s", c.Name(), root.Tree())
		case "group":
			groups++
		case "groups":
			t.Errorf("%d groups must not need a rollup span:\n%s", groups, root.Tree())
		}
	}
	if groups == 0 {
		t.Fatalf("no group spans under the serial solve span:\n%s", root.Tree())
	}
}

// TestParallelConcurrentSolvesRaceHammer runs overlapping parallel
// solves — plain, budget-bounded and deadline-bounded — to give the race
// detector a dense interleaving of worker pools, shared budget roots and
// concurrent span attachment (`make race` runs this with -race).
func TestParallelConcurrentSolvesRaceHammer(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				in := clusteredInstance(6, int64(g*10+i))
				d := widened{&DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64}, 8}
				root := obs.NewSpan("strategy")
				ctx := obs.ContextWithSpan(context.Background(), root)
				var b Budget
				switch i % 3 {
				case 1:
					b = Budget{MaxPivots: 2000}
				case 2:
					b = Budget{Timeout: 2 * time.Millisecond}
				}
				plan, err := d.SolveContext(ctx, in, b)
				switch {
				case err == nil, errors.Is(err, ErrInfeasible), isBudgetErr(err):
				default:
					t.Errorf("goroutine %d iter %d: unexpected error %T %v", g, i, err, err)
				}
				if plan != nil {
					if verr := in.Verify(plan); verr != nil {
						t.Errorf("goroutine %d iter %d: plan fails Verify: %v", g, i, verr)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
