package strategy

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"pcqe/internal/conf"
	"pcqe/internal/fault"
	"pcqe/internal/obs"
)

// DivideAndConquer is the paper's scalable algorithm (Section 4.3): it
// partitions the result-sharing graph — nodes are intermediate results,
// edge weights count shared base tuples — by repeatedly merging the pair
// of groups with the maximum connecting weight until that weight drops
// below γ; it then solves every group with the greedy algorithm (plus a
// heuristic search seeded with the greedy bound when the group has fewer
// than τ base tuples), combines the group plans by taking the maximum
// planned confidence for base tuples shared across groups, and finally
// refines the combined plan by undoing increments the combination made
// redundant.
//
// Note on the weight definition: the paper's pseudocode (Figure 10)
// writes wij ← |Gi ∪ Gj| but the text and the worked example (Figure 8:
// results sharing three base tuples get weight 3) define the weight as
// the number of shared tuples, so this implementation uses |Gi ∩ Gj|.
// Similarly the pseudocode merges while wmax > γ but the worked example
// merges at wmax = γ = 2; we follow the example (merge while wmax ≥ γ).
type DivideAndConquer struct {
	// Gamma is the partition threshold γ: merging stops when the
	// maximum inter-group weight falls below it. Values < 1 collapse to
	// 1 (weight-0 pairs share nothing and are never merged).
	Gamma int
	// Tau is the heuristic-search cutoff τ: groups with fewer base
	// tuples than this also run the heuristic (greedy-seeded). 0
	// disables the per-group heuristic.
	Tau int
	// MaxGroupResults caps a group's size in results, the paper's first
	// partitioning requirement ("the number of base tuples associated
	// with the result tuples in the same group should not exceed a
	// threshold"); merges that would exceed it are skipped. 0 = no cap.
	MaxGroupResults int
	// Parallel solves group sub-instances on GOMAXPROCS worker
	// goroutines. Groups are independent and their plans merge in
	// deterministic group order, so the combined plan is bit-identical
	// to the serial one (pinned by the differential tests).
	Parallel bool
	// Workers pins the group-solve worker-pool size: 0 defers to
	// Parallel (GOMAXPROCS when set, serial otherwise), 1 forces
	// serial, n > 1 uses n workers regardless of Parallel.
	// Budget.Workers overrides this per solve.
	Workers int
	// TreeWalk evaluates result formulas with the legacy tree walk
	// instead of compiled lineage programs (differential testing and
	// ablation only; plans are identical).
	TreeWalk bool
}

// NewDivideAndConquer returns the configuration used in the benchmarks:
// γ=1 (any sharing groups results together), τ=8, and a 64-result group
// cap — the paper's first partitioning requirement ("each sub-problem is
// solvable in reasonable time"), which also keeps the giant connected
// component of dense workloads from collapsing D&C into plain greedy.
func NewDivideAndConquer() *DivideAndConquer {
	return &DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64}
}

// Name implements Solver.
func (d *DivideAndConquer) Name() string { return "divide-and-conquer" }

// Solve implements Solver.
func (d *DivideAndConquer) Solve(in *Instance) (*Plan, error) {
	return d.SolveContext(context.Background(), in, Budget{})
}

// SolveContext implements ContextSolver. The driver degrades
// gracefully: a group sub-solve that panics or exhausts the budget is
// isolated (recovered at the group boundary, converted to a typed
// error, counted in Plan.Degraded) while the remaining groups still
// solve; if the combined state of the surviving groups satisfies the
// instance, the plan is returned tagged Plan.Partial alongside any
// budget error.
func (d *DivideAndConquer) SolveContext(ctx context.Context, in *Instance, b Budget) (plan *Plan, err error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	bs, cancel := newBudgetState(d.Name(), ctx, b)
	defer cancel()
	span := startSolveSpan(ctx, d.Name())
	defer func() { finishSolveSpan(span, bs, plan, err) }()
	return d.solveBudget(in, bs, span, d.effectiveWorkers(b))
}

// effectiveWorkers resolves the worker-pool size for one solve:
// Budget.Workers overrides the solver's Workers field, which in turn
// overrides the Parallel default (GOMAXPROCS when set, serial
// otherwise). The result is always at least 1.
func (d *DivideAndConquer) effectiveWorkers(b Budget) int {
	w := b.Workers
	if w == 0 {
		w = d.Workers
	}
	if w == 0 && d.Parallel {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// EffectiveWorkers reports how many worker goroutines s will use for a
// solve under b: parallel-capable solvers (DivideAndConquer) resolve
// Budget.Workers against their own configuration; every other solver is
// serial. The engine exports this as the engine.solver.workers gauge.
func EffectiveWorkers(s Solver, b Budget) int {
	if d, ok := s.(*DivideAndConquer); ok {
		return d.effectiveWorkers(b)
	}
	return 1
}

// solveBudget runs the divide-and-conquer driver under an existing
// budget state, owning the recovery boundary. span (nil-safe) receives
// partition and per-group child spans; workers (≥ 1) sizes the group
// worker pool. The solve is deterministic for every worker count:
// group sub-solves are pure functions of their sub-instance, and the
// combination below merges their plans in task order, so the plan is
// bit-identical to the serial one.
func (d *DivideAndConquer) solveBudget(in *Instance, bs *budgetState, span *obs.Span, workers int) (plan *Plan, err error) {
	var incumbent *Plan
	defer func() {
		if r := recover(); r != nil {
			plan, err = solveRecover(r, d.Name(), in, incumbent)
		}
	}()
	parallel := workers > 1
	if parallel {
		span.SetAttr("workers", int64(workers))
		// Attribute the driver's own lineage work (global evaluator,
		// partition, combine, refine) to a "driver" child span with its
		// own budget-state child, so the solve span's counters decompose
		// exactly into driver + workers. The span closes before the
		// recovery boundary above runs (defers are LIFO), so it survives
		// budget unwinds too.
		bs = bs.worker()
		ds := span.StartChild("driver")
		dbs := bs
		defer func() { finishWorkerSpan(ds, dbs, -1) }()
	}
	e := newEvaluator(in, evalOpts{bs: bs, treeWalk: d.TreeWalk})
	if e.satAtMax() < in.Need {
		return nil, ErrInfeasible
	}
	gamma := d.Gamma
	if gamma < 1 {
		gamma = 1
	}

	partSpan := span.StartChild("partition")
	groups := partitionBudget(in, gamma, d.MaxGroupResults, bs)
	partSpan.SetAttr("groups", int64(len(groups)))
	partSpan.End()
	nodes := 0
	totalNeed := in.Need - e.nSat
	if totalNeed <= 0 {
		return e.plan(0), nil
	}

	// Deterministic group order (larger groups first).
	sort.Slice(groups, func(a, b int) bool {
		if len(groups[a].Results) != len(groups[b].Results) {
			return len(groups[a].Results) > len(groups[b].Results)
		}
		return groups[a].Results[0] < groups[b].Results[0]
	})

	combined := make([]float64, len(in.Base))
	for i, b := range in.Base {
		combined[i] = b.P
	}

	// Per the paper: each group with x results solves for min(x, y)
	// where y is the query's total requirement; the combination then
	// over-satisfies, and the refinement step removes the most
	// expensive surplus increments. This deliberately trades extra
	// per-group work for a cheaper combined plan.
	tasks := make([]*dncTask, 0, len(groups))
	for _, g := range groups {
		bs.poll()
		sub, mapping := g.subInstance(in)
		// Already-satisfied group results come for free and still count
		// toward the sub-instance's satisfied set, so the sub-need is
		// free + however many new ones this group should contribute. The
		// per-group feasibility probe (which may lower the target, or
		// drop the group entirely) runs worker-side in solveGroup, so it
		// parallelizes with the solves.
		unsat, free := 0, 0
		for _, ri := range g.Results {
			if e.satisfied[ri] {
				free++
			} else {
				unsat++
			}
		}
		if unsat == 0 {
			continue
		}
		need := unsat
		if need > totalNeed {
			need = totalNeed
		}
		sub.Need = free + need
		tasks = append(tasks, &dncTask{sub: sub, mapping: mapping, free: free})
	}

	// Solve every group on the worker pool: sub-instances are
	// independent, so workers never share mutable state — each owns a
	// scratch arena recycled across its groups and a budget-state child
	// feeding the shared global budget — and only the combination below
	// is ordered. Task results are slotted by pointer, so the combine
	// loop reads them in deterministic task order regardless of which
	// worker finished which group when.
	if pool := min(workers, len(tasks)); parallel && pool > 1 {
		var wg sync.WaitGroup
		queue := make(chan *dncTask)
		for w := 0; w < pool; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := span.StartChild("worker")
				wbs := bs.worker()
				ar := newArena()
				done := 0
				defer func() { finishWorkerSpan(ws, wbs, done) }()
				for t := range queue {
					// solveGroup never panics: both budget unwinds and real
					// panics are recovered at the group boundary, so one bad
					// group cannot kill a worker (or leak its siblings).
					t.plan, t.nodes, t.err = d.solveGroup(t.sub, t.free, wbs, ws, ar)
					done++
				}
			}()
		}
		for _, t := range tasks {
			queue <- t
		}
		close(queue)
		wg.Wait()
	} else {
		ar := newArena()
		for _, t := range tasks {
			t.plan, t.nodes, t.err = d.solveGroup(t.sub, t.free, bs, span, ar)
		}
	}

	// If the budget ran out during the group solves, switch to
	// best-effort mode: checkpoints stop unwinding so the (cheap,
	// bounded) combination below can still assemble an incumbent from
	// the groups that did finish.
	cause := bs.exceeded()
	if cause != nil {
		bs.drain()
	}

	// Combine in deterministic order: maximum confidence per tuple.
	degraded := 0
	for _, t := range tasks {
		fault.Probe(SiteDnCCombine)
		bs.poll()
		nodes += t.nodes
		if t.err != nil {
			degraded++
		}
		if t.plan == nil {
			continue
		}
		for si, bi := range t.mapping {
			if t.plan.NewP[si] > combined[bi] {
				combined[bi] = t.plan.NewP[si]
			}
		}
		for _, bi := range t.mapping {
			e.setP(bi, combined[bi])
		}
	}

	if e.nSat < in.Need {
		if cause != nil {
			// Out of budget with an infeasible combined state: there is
			// no incumbent to return.
			return nil, cause
		}
		// Groups under-delivered (can happen when a result's tuples were
		// split by the γ threshold, or because degraded groups were
		// skipped). Fall back to global greedy from the combined state.
		if !finishGreedy(in, e, bs) {
			return nil, ErrInfeasible
		}
	}

	// The combined state is feasible: snapshot it before refinement so a
	// budget unwind during refinement still returns a valid plan.
	incumbent = e.plan(nodes)
	incumbent.Degraded = degraded
	if cause != nil {
		// Already out of budget: return the unrefined combination rather
		// than spending further over the deadline on refinement.
		incumbent.Partial = true
		return incumbent, cause
	}

	// Refinement: like greedy phase 2, undo increments the combination
	// made unnecessary, cheapest-contribution first.
	refine(in, e, bs)

	p := e.plan(nodes)
	p.Degraded = degraded
	if degraded > 0 {
		p.Partial = true
	}
	return p, nil
}

// dncTask is one group sub-solve on the worker pool: the inputs the
// driver prepared (sub-instance, parent-index mapping, count of group
// results that are already satisfied) and the result slots the assigned
// worker fills. The driver reads the slots only after the pool drains,
// in deterministic task order.
type dncTask struct {
	sub     *Instance
	mapping []int
	free    int
	plan    *Plan
	nodes   int
	err     error // budget/panic degradation of this group's solve
}

// solveGroup solves one sub-instance: feasibility probe first (dropping
// the group or lowering its target to what it can deliver), then greedy
// always, plus an exact greedy-seeded heuristic search when the group
// is small (< τ tuples). It is the isolation boundary of the
// divide-and-conquer driver: budget unwinds and panics inside the group
// are recovered here and reported as a typed error, so sibling groups
// keep solving. It returns (nil, 0, nil) when the group is plainly
// infeasible or cannot contribute beyond its free results, and a
// non-nil plan with a non-nil error when the group degraded but the
// cheaper fallback (greedy without refinement, or greedy instead of the
// exact search) still produced a usable plan. ar supplies the worker's
// scratch arena (nil = heap); it is reset between the phases here and
// must not be shared with a live evaluator.
func (d *DivideAndConquer) solveGroup(sub *Instance, free int, bs *budgetState, parent *obs.Span, ar *arena) (plan *Plan, nodes int, gerr error) {
	// Group spans attach to the shared solve span; Span.StartChild is
	// concurrency-safe, so parallel workers need no extra coordination.
	gs := parent.StartChild("group")
	gs.SetAttr("results", int64(len(sub.Results)))
	gs.SetAttr("tuples", int64(len(sub.Base)))
	// Runs after the recovery boundary below (defers are LIFO), so it
	// records the degradation the recovery produced.
	defer func() {
		gs.SetAttr("nodes", int64(nodes))
		if gerr != nil {
			gs.SetStatus(gerr.Error())
		}
		gs.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			if stop, ok := r.(budgetStop); ok {
				plan, nodes, gerr = nil, 0, stop.cause
				return
			}
			plan, nodes, gerr = nil, 0, &SolverPanicError{
				Solver:      d.Name() + "/group",
				Fingerprint: sub.Fingerprint(),
				Value:       r,
				Stack:       debug.Stack(),
			}
		}
	}()
	fault.Probe(SiteDnCGroup)
	bs.poll()
	// Feasibility: one evaluator serves both the check and (when the
	// target must be lowered) the satisfiable maximum.
	ar.reset()
	if max := newEvaluator(sub, evalOpts{bs: bs, ar: ar, treeWalk: d.TreeWalk}).satAtMax(); max < sub.Need {
		if max <= free {
			// The group cannot deliver anything beyond its already
			// satisfied results; skip it entirely.
			return nil, 0, nil
		}
		// Lower the group's target to what it can actually deliver.
		sub.Need = max
	}
	// Incremental gain maintenance is the default for group solves: the
	// plan is identical to the full rescan's (asserted by tests) and the
	// dirty-propagation loop is strictly faster.
	ar.reset()
	plan, err := (&Greedy{Incremental: true, TreeWalk: d.TreeWalk}).solveArena(sub, bs, ar)
	if err != nil {
		var bx *BudgetExceededError
		if errors.As(err, &bx) && plan != nil {
			// Anytime greedy result: feasible for the group, just not
			// refined. Use it and report the degradation.
			return plan, plan.Nodes, err
		}
		if errors.Is(err, ErrInfeasible) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	nodes = plan.Nodes
	if d.Tau > 0 && len(sub.Base) < d.Tau {
		ar.reset()
		hp, hnodes, herr := d.groupHeuristic(sub, plan, bs, ar)
		nodes += hnodes
		if herr != nil {
			// Graceful fallback: the exact search failed or ran out of
			// budget, keep the greedy plan and report the degradation.
			return plan, nodes, herr
		}
		if hp != nil && hp.Cost <= plan.Cost {
			plan = hp
		}
	}
	return plan, nodes, nil
}

// groupHeuristic runs the greedy-seeded exact search on a small group,
// recovering budget unwinds and panics so the caller can fall back to
// the greedy plan.
func (d *DivideAndConquer) groupHeuristic(sub *Instance, seed *Plan, bs *budgetState, ar *arena) (plan *Plan, nodes int, err error) {
	var hs *heuristicSearch
	defer func() {
		if r := recover(); r != nil {
			if hs != nil {
				nodes = hs.nodes
			}
			if stop, ok := r.(budgetStop); ok {
				plan, err = nil, stop.cause
				return
			}
			plan, err = nil, &SolverPanicError{
				Solver:      "heuristic/group",
				Fingerprint: sub.Fingerprint(),
				Value:       r,
				Stack:       debug.Stack(),
			}
		}
	}()
	h := &Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true, TreeWalk: d.TreeWalk}
	eo := evalOpts{bs: bs, ar: ar, treeWalk: d.TreeWalk}
	hs = &heuristicSearch{Heuristic: h, in: sub, eo: eo, e: newEvaluator(sub, eo), bestCost: seed.Cost, best: seed}
	hs.prepare()
	hs.dfs(0, 0)
	return hs.best, hs.nodes, nil
}

// finishGreedy runs greedy phase-1 steps on the global instance from the
// evaluator's current state until Need is met. Returns false if stuck.
func finishGreedy(in *Instance, e *evaluator, bs *budgetState) bool {
	for e.nSat < in.Need {
		fault.Probe(SiteDnCFinish)
		bs.poll()
		pick, best := -1, 0.0
		for bi, b := range in.Base {
			next := stepUp(b, in.Delta, e.p[bi])
			if next == e.p[bi] {
				continue
			}
			c := b.Cost.Increment(e.p[bi], next)
			df := e.deltaF(bi, next)
			if c <= 0 || df <= 0 {
				continue
			}
			if g := df / c; g > best {
				pick, best = bi, g
			}
		}
		if pick < 0 {
			pick = cheapestStep(in, e)
			if pick < 0 {
				return false
			}
		}
		next := stepUp(in.Base[pick], in.Delta, e.p[pick])
		if next == e.p[pick] {
			return false
		}
		bs.step()
		e.setP(pick, next)
	}
	return true
}

// refine lowers raised tuples by δ steps while the requirement stays
// met, walking tuples in ascending order of (raised amount × unit cost)
// so the least valuable increments are reclaimed first.
func refine(in *Instance, e *evaluator, bs *budgetState) {
	raised := make([]int, 0)
	for bi, b := range in.Base {
		bs.poll()
		if conf.GT(e.p[bi], b.P) {
			raised = append(raised, bi)
		}
	}
	sort.Slice(raised, func(a, b int) bool {
		ca := in.Base[raised[a]].Cost.Increment(in.Base[raised[a]].P, e.p[raised[a]])
		cb := in.Base[raised[b]].Cost.Increment(in.Base[raised[b]].P, e.p[raised[b]])
		if ca != cb {
			return ca > cb // most expensive raised tuple first
		}
		return raised[a] < raised[b]
	})
	for _, bi := range raised {
		for e.nSat >= in.Need && conf.GT(e.p[bi], in.Base[bi].P) {
			fault.Probe(SiteDnCRefine)
			bs.poll()
			bs.step()
			prev := e.p[bi]
			next := stepDown(in.Base[bi], in.Delta, prev)
			e.setP(bi, next)
			if e.nSat < in.Need {
				e.setP(bi, prev)
				break
			}
		}
	}
}

// Group is one partition cell: result indices and the union of their
// base-tuple indices (both into the parent instance).
type Group struct {
	Results []int
	Base    []int
}

// Partition builds the result-sharing graph and merges greedily: the two
// groups connected with the maximum total weight merge until the maximum
// falls below gamma. maxResults, when positive, blocks merges that would
// produce a group with more results than the cap.
func Partition(in *Instance, gamma, maxResults int) []Group {
	return partitionBudget(in, gamma, maxResults, nil)
}

// partitionBudget is Partition with cooperative cancellation: the merge
// loop polls bs once per heap pop, so even degenerate sharing graphs
// observe deadlines promptly.
func partitionBudget(in *Instance, gamma, maxResults int, bs *budgetState) []Group {
	n := len(in.Results)
	varIdx := map[int]int{}
	for i, b := range in.Base {
		varIdx[int(b.Var)] = i
	}
	baseSets := make([]map[int]bool, n)
	for ri, r := range in.Results {
		bs.poll()
		set := map[int]bool{}
		for _, v := range r.Formula.Vars() {
			set[varIdx[int(v)]] = true
		}
		baseSets[ri] = set
	}

	// Pairwise result weights (shared base tuples).
	type edge struct{ a, b int }
	weight := map[edge]int{}
	// Build via inverted index to avoid O(n²) when sharing is sparse.
	byBase := map[int][]int{}
	for ri, set := range baseSets {
		bs.poll()
		for bi := range set {
			byBase[bi] = append(byBase[bi], ri)
		}
	}
	// Pair counting is quadratic in per-tuple co-occurrence; keep the
	// deadline responsive while the weight map is built.
	for _, rs := range byBase {
		bs.poll()
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				a, b := rs[i], rs[j]
				if a > b {
					a, b = b, a
				}
				weight[edge{a, b}]++
			}
		}
	}

	// Union-find over results; group weights accumulate by summing the
	// pairwise result weights (the paper's merge rule).
	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// Iteratively merge the heaviest group pair. Group-pair weights are
	// maintained incrementally: adj[r] maps a live root to the summed
	// result-edge weight connecting it to each neighboring root, and a
	// lazy max-heap orders candidate pairs. A popped entry is applied
	// only when both endpoints are still roots and its weight is still
	// current; merging b into a folds b's adjacency into a's and pushes
	// the refreshed pairs. The selection rule — maximum weight, ties
	// broken by the smallest (a, b) root pair — matches the previous
	// full-rescan implementation exactly, so the resulting partition is
	// identical; this version just drops the per-merge rescan that made
	// partitioning quadratic in the result count and the bottleneck of
	// million-tuple solves.
	adj := make([]map[int]int, n)
	at := func(r int) map[int]int {
		if adj[r] == nil {
			adj[r] = map[int]int{}
		}
		return adj[r]
	}
	var heap pairHeap
	for e2, w := range weight {
		bs.poll()
		a, b := e2.a, e2.b
		at(a)[b] = w
		at(b)[a] = w
		heap.push(pairEntry{w: w, a: a, b: b})
	}
	for heap.len() > 0 {
		fault.Probe(SiteDnCPartition)
		bs.poll()
		top := heap.pop()
		if top.w < gamma {
			break // nothing eligible can beat it: weights below γ never merge
		}
		a, b := top.a, top.b
		if find(a) != a || find(b) != b {
			continue // stale: an endpoint was merged away
		}
		if adj[a][b] != top.w {
			continue // stale: the pair was re-pushed with a newer weight
		}
		if maxResults > 0 && size[a]+size[b] > maxResults {
			// Sizes only grow, so the pair is permanently ineligible; drop
			// this entry (future re-pushes are rejected the same way).
			continue
		}
		// Union by attaching the higher root under the lower for
		// deterministic group identities.
		parent[b] = a
		size[a] += size[b]
		delete(adj[a], b)
		for c, wbc := range adj[b] {
			if c == a {
				continue
			}
			delete(adj[c], b)
			nw := at(a)[c] + wbc
			adj[a][c] = nw
			adj[c][a] = nw
			lo, hi := a, c
			if lo > hi {
				lo, hi = hi, lo
			}
			heap.push(pairEntry{w: nw, a: lo, b: hi})
		}
		adj[b] = nil
	}

	byRoot := map[int][]int{}
	for ri := 0; ri < n; ri++ {
		bs.poll()
		r := find(ri)
		byRoot[r] = append(byRoot[r], ri)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	groups := make([]Group, 0, len(roots))
	for _, r := range roots {
		bs.poll()
		g := Group{Results: byRoot[r]}
		baseSet := map[int]bool{}
		for _, ri := range g.Results {
			for bi := range baseSets[ri] {
				baseSet[bi] = true
			}
		}
		for bi := range baseSet {
			g.Base = append(g.Base, bi)
		}
		sort.Ints(g.Base)
		groups = append(groups, g)
	}
	return groups
}

// subInstance extracts the group as a standalone instance; mapping[i]
// gives the parent base index of the sub-instance's i-th tuple.
func (g Group) subInstance(in *Instance) (*Instance, []int) {
	sub := &Instance{
		Beta:  in.Beta,
		Delta: in.Delta,
	}
	mapping := append([]int{}, g.Base...)
	for _, bi := range mapping {
		sub.Base = append(sub.Base, in.Base[bi])
	}
	for _, ri := range g.Results {
		sub.Results = append(sub.Results, in.Results[ri])
	}
	sub.Need = len(sub.Results)
	return sub, mapping
}
