package strategy

import (
	"cmp"
	"context"
	"errors"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"time"

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

// SolveContext implements Solver. The driver degrades gracefully: a
// group sub-solve that panics or exhausts the budget is isolated
// (recovered at the group boundary, converted to a typed error, counted
// in Plan.Degraded) while the remaining groups still solve; if the
// combined state of the surviving groups satisfies the instance, the
// plan is returned tagged Plan.Partial alongside any budget error.
// Budget.Workers > 1 solves the groups on that many worker goroutines.
func (d *DivideAndConquer) SolveContext(ctx context.Context, in *Instance, b Budget) (*Plan, error) {
	return runSolve(ctx, d.Name(), in, b, func(r *solveRun) (*Plan, error) {
		return d.search(ctx, r, max(b.Workers, 1))
	})
}

// phase runs f with the profiler label phase=name on top of the labels
// ctx carries (the engine's layer=strategy), so a CPU profile of a
// serving run splits the solver by phase without reading stacks.
// Goroutines started inside f inherit the label.
func phase(ctx context.Context, name string, f func()) {
	if ctx == nil {
		ctx = context.Background() // SolveContext tolerates a nil context
	}
	pprof.Do(ctx, pprof.Labels("phase", name), func(context.Context) { f() })
}

// search is the divide-and-conquer driver. ctx carries only profiler
// labels; r.span receives partition and per-group child spans; workers
// (≥ 1) sizes the group worker pool. The solve is deterministic for
// every worker count: group sub-solves are pure functions of their
// group, and the combination below merges their plans in task order,
// so the plan is bit-identical to the serial one (pinned by the
// differential tests). r.e is the solve's one compiling evaluator:
// group workers borrow its programs and adjacency by result index,
// read-only.
func (d *DivideAndConquer) search(ctx context.Context, r *solveRun, workers int) (*Plan, error) {
	e, in, bs, span := r.e, r.e.in, r.e.bs, r.span
	// pool holds the workers' budget-state children, each counting its own
	// goroutine's share of the solve's work.
	var pool []*budgetState
	if workers > 1 {
		span.SetAttr("workers", int64(workers))
		// The driver's own lineage work (the evaluator build, partition,
		// combine, refine) is what the solve counted beyond its workers: a
		// "driver" child span reports it, so the solve span's counters
		// decompose exactly into driver + workers. The span closes before
		// the boundary's recovery runs, so it survives budget unwinds too.
		ds := span.StartChild("driver")
		defer func() {
			if bs != nil {
				nodes, pivots, steps := bs.nodes.Load(), bs.pivots.Load(), bs.steps.Load()
				for _, w := range pool {
					nodes, pivots, steps = nodes-w.nodes.Load(), pivots-w.pivots.Load(), steps-w.steps.Load()
				}
				setWork(ds, nodes, pivots, steps)
			}
			ds.End()
		}()
	}

	partSpan := span.StartChild("partition")
	var groups []Group
	phase(ctx, "partition", func() { groups = partition(e, max(d.Gamma, 1), d.MaxGroupResults) })
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
	tasks := make([]dncTask, 0, len(groups))
	for _, g := range groups {
		bs.poll()
		// Already-satisfied group results come for free and still count
		// toward the sub-instance's satisfied set, so the sub-need is
		// free + however many new ones this group should contribute. The
		// per-group feasibility probe (which may lower the target, or
		// drop the group entirely) runs worker-side in solveGroup, so it
		// parallelizes with the solves.
		free := 0
		for _, ri := range g.Results {
			if e.satisfied[ri] {
				free++
			}
		}
		if need := min(len(g.Results)-free, totalNeed); need > 0 {
			tasks = append(tasks, dncTask{g: g, need: free + need, free: free})
		}
	}

	// Solve every group on the worker pool: groups are independent, so
	// workers never share mutable state — each owns one evaluator pair
	// re-targeted from group to group and a budget-state child feeding
	// the shared global budget — and only the combination below is
	// ordered. Task results are slotted by pointer, so the combine loop
	// reads them in deterministic task order regardless of which worker
	// finished which group when.
	phase(ctx, "group", func() {
		if n := min(workers, len(tasks)); n > 1 {
			var wg sync.WaitGroup
			queue := make(chan *dncTask)
			pool = make([]*budgetState, n)
			for i := range pool {
				wbs := bs.worker()
				pool[i] = wbs
				wg.Add(1)
				go func() {
					defer wg.Done()
					ws := span.StartChild("worker")
					w := newGroupWorker(d, e, wbs, ws)
					defer func() {
						w.finish()
						// The worker's own share of the work counters, not the
						// root totals.
						if wbs != nil {
							setWork(ws, wbs.nodes.Load(), wbs.pivots.Load(), wbs.steps.Load())
						}
						ws.SetAttr("groups", int64(w.done))
						ws.End()
					}()
					for t := range queue {
						w.solve(t)
					}
				}()
			}
			for i := range tasks {
				queue <- &tasks[i]
			}
			close(queue)
			wg.Wait()
			return
		}
		w := newGroupWorker(d, e, bs, span)
		for i := range tasks {
			w.solve(&tasks[i])
		}
		w.finish()
	})

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
	var topUp error
	phase(ctx, "combine", func() {
		for i := range tasks {
			t := &tasks[i]
			fault.Probe(SiteDnCCombine)
			bs.poll()
			nodes += t.nodes
			if t.err != nil {
				degraded++
			}
			if t.plan == nil {
				continue
			}
			for si, bi := range t.g.Base {
				if t.plan.NewP[si] > combined[bi] {
					combined[bi] = t.plan.NewP[si]
				}
			}
			for _, bi := range t.g.Base {
				e.setP(bi, combined[bi])
			}
		}
		// A group holds every tuple of its results, so only a degraded or
		// skipped group under-delivers. The top-up is greedy's phase 1 on
		// the global evaluator from the combined state; its gain
		// evaluations stay out of Plan.Nodes. With the budget already gone
		// there is no incumbent to return.
		if e.nSat < in.Need && cause == nil {
			_, topUp = (&Greedy{Incremental: true}).raise(e, SiteDnCFinish)
		}
	})
	if e.nSat < in.Need && cause != nil {
		return nil, cause
	}
	if topUp != nil {
		return nil, topUp
	}

	// The combined state is feasible: snapshot it before refinement so a
	// budget unwind during refinement still returns a valid plan.
	r.incumbent = e.plan(nodes)
	r.incumbent.Degraded = degraded
	if cause != nil {
		// Already out of budget: return the unrefined combination rather
		// than spending further over the deadline on refinement.
		r.incumbent.Partial = true
		return r.incumbent, cause
	}

	// Refinement: greedy's phase 2 undoes increments the combination made
	// unnecessary, walking the raised tuples by increment cost, the most
	// expensive first.
	phase(ctx, "refine", func() { reduce(e, raisedByCost(e), SiteDnCRefine, func() {}) })

	p := e.plan(nodes)
	p.Degraded = degraded
	if degraded > 0 {
		p.Partial = true
	}
	return p, nil
}

// dncTask is one group sub-solve on the worker pool: the inputs the
// driver prepared (the group, its target and the count of group results
// that are already satisfied) and the result slots the assigned worker
// fills. The driver reads the slots only after the pool drains, in
// deterministic task order.
type dncTask struct {
	g     Group
	need  int // sub-instance Need: free + the new results wanted
	free  int
	plan  *Plan
	nodes int
	err   error // budget/panic degradation of this group's solve
}

// maxGroupSpans bounds the per-group child spans one parent span (the
// solve span, or each worker span of a parallel solve) receives; the
// remaining groups fold into one "groups" rollup child, so a solve over
// thousands of singleton groups does not ship a span per group.
const maxGroupSpans = 32

// groupWorker is one worker's world, re-targeted from group to group
// instead of rebuilt: the scratch sub-instance, the evaluator every
// phase of a group solve runs on, the exact search with its H3 mirror
// and tables, and greedy's snapshot. The serial path is a single worker
// on the driver's goroutine.
type groupWorker struct {
	d    *DivideAndConquer
	src  *evaluator // the driver's evaluator: programs and adjacency, read-only
	bs   *budgetState
	span *obs.Span // parent of this worker's group spans
	sub  Instance
	e    *evaluator
	h3   *evaluator
	h    Heuristic
	hs   heuristicSearch
	snap snapshot
	done int
	// rest accumulates the groups beyond maxGroupSpans for the rollup.
	rest struct{ count, results, tuples, nodes, micros, degraded int64 }
}

func newGroupWorker(d *DivideAndConquer, src *evaluator, bs *budgetState, span *obs.Span) *groupWorker {
	return &groupWorker{d: d, src: src, bs: bs, span: span, e: blankEvaluator(bs), h3: blankEvaluator(bs),
		h: Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true}}
}

// solve runs one task and records it: a "group" child span for the
// worker's first maxGroupSpans groups, the rollup counters afterwards.
// Span.StartChild is concurrency-safe, so parallel workers sharing a
// parent need no extra coordination.
func (w *groupWorker) solve(t *dncTask) {
	w.done++
	rolled := w.span != nil && w.done > maxGroupSpans
	var gs *obs.Span // nil (and every call on it a no-op) when rolled up or untraced
	var start time.Time
	if rolled {
		start = time.Now()
	} else {
		gs = w.span.StartChild("group")
	}
	t.plan, t.nodes, t.err = w.solveGroup(t)
	results, tuples := int64(len(t.g.Results)), int64(len(t.g.Base))
	if rolled {
		w.rest.count++
		w.rest.results += results
		w.rest.tuples += tuples
		w.rest.nodes += int64(t.nodes)
		w.rest.micros += time.Since(start).Microseconds()
		if t.err != nil {
			w.rest.degraded++
		}
		return
	}
	gs.SetAttr("results", results)
	gs.SetAttr("tuples", tuples)
	gs.SetAttr("nodes", int64(t.nodes))
	if t.err != nil {
		gs.SetStatus(t.err.Error())
	}
	gs.End()
}

// finish emits the rollup span of the groups solve left unrecorded.
func (w *groupWorker) finish() {
	if w.rest.count == 0 {
		return
	}
	rs := w.span.StartChild("groups")
	rs.SetAttr("count", w.rest.count)
	rs.SetAttr("results", w.rest.results)
	rs.SetAttr("tuples", w.rest.tuples)
	rs.SetAttr("nodes", w.rest.nodes)
	rs.SetAttr("micros", w.rest.micros)
	rs.SetAttr("degraded", w.rest.degraded)
	rs.End()
}

// target points the worker at one group: the scratch sub-instance is
// refilled and the evaluator re-targeted onto it.
func (w *groupWorker) target(t *dncTask) {
	in := w.src.in
	base, results := w.sub.Base[:0], w.sub.Results[:0]
	for _, bi := range t.g.Base {
		base = append(base, in.Base[bi])
	}
	for _, ri := range t.g.Results {
		results = append(results, in.Results[ri])
	}
	w.sub.Base, w.sub.Results = base, results
	w.sub.Beta, w.sub.Delta, w.sub.Need = in.Beta, in.Delta, t.need
	w.e.retarget(&w.sub, w.src, t.g)
}

// solveGroup solves one group: feasibility probe first (dropping the
// group or lowering its target to what it can deliver), then greedy
// always, plus an exact greedy-seeded heuristic search when the group
// is small (< τ tuples) — all on the worker's one evaluator, reset to
// the initial confidences between phases. It is the isolation boundary
// of the divide-and-conquer driver: budget unwinds and panics inside
// the group are recovered here and reported as a typed error, so
// sibling groups keep solving. It returns (nil, 0, nil) when the group
// is plainly infeasible or cannot contribute beyond its free results,
// and a non-nil plan with a non-nil error when the group degraded but a
// cheaper fallback (greedy short of full refinement, or greedy instead
// of the exact search) still produced a usable plan. Whatever state the
// recovery leaves in the evaluator pair, the next group's retarget
// rebuilds it.
func (w *groupWorker) solveGroup(t *dncTask) (plan *Plan, nodes int, gerr error) {
	// The greedy plan, or before it greedy's feasible snapshots: what a
	// budget unwind falls back to — an anytime result, feasible for the
	// group, just not refined.
	var incumbent *Plan
	w.snap.taken = false
	defer func() {
		if r := recover(); r != nil {
			nodes = 0
			if plan, gerr = solveRecover(r, w.d.Name()+"/group", &w.sub, cmp.Or(incumbent, w.snap.plan(&w.sub))); plan != nil {
				nodes = plan.Nodes
			}
		}
	}()
	fault.Probe(SiteDnCGroup)
	w.bs.pollNow(true)
	w.target(t)
	sub := &w.sub
	if max := w.e.satAtMax(); max < sub.Need {
		if max <= t.free {
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
	plan, err := (&Greedy{Incremental: true}).solveCore(w.e, &w.snap)
	if err != nil {
		if errors.Is(err, ErrInfeasible) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	incumbent, nodes = plan, plan.Nodes
	if w.d.Tau > 0 && len(sub.Base) < w.d.Tau {
		hp, hnodes, herr := w.groupHeuristic(plan)
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

// groupHeuristic runs the greedy-seeded exact search on a small group —
// on the worker's evaluator, reset from the greedy solve, and its H3
// mirror — recovering budget unwinds and panics so the caller can fall
// back to the greedy plan.
func (w *groupWorker) groupHeuristic(seed *Plan) (plan *Plan, nodes int, err error) {
	hs := &w.hs
	defer func() {
		if r := recover(); r != nil {
			nodes = hs.nodes
			plan, err = solveRecover(r, "heuristic/group", &w.sub, nil)
		}
	}()
	hs.Heuristic, hs.in, hs.e, hs.maxEval, hs.best, hs.bestCost, hs.nodes = &w.h, &w.sub, w.e, w.h3, seed, seed.Cost, 0
	w.e.reset()
	hs.prepare()
	hs.dfs(0, 0)
	return hs.best, hs.nodes, nil
}

// raisedByCost is D&C's refinement order: the tuples raised above their
// initial confidence, the most expensive increment so far first (ties by
// index).
func raisedByCost(e *evaluator) []int {
	in := e.in
	var raised []int
	for bi, b := range in.Base {
		e.bs.poll()
		if conf.GT(e.p[bi], b.P) {
			raised = append(raised, bi)
		}
	}
	spent := func(bi int) float64 { return in.Base[bi].Cost.Increment(in.Base[bi].P, e.p[bi]) }
	slices.SortFunc(raised, func(a, b int) int { return cmp.Or(cmp.Compare(spent(b), spent(a)), cmp.Compare(a, b)) })
	return raised
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
// produce a group with more results than the cap. The sharing graph is
// read off the instance's evaluator, which Partition builds; it panics
// on an instance newEvaluator refuses (one Validate rejects, or a
// formula past lineage.ErrTooManyShared's limit).
func Partition(in *Instance, gamma, maxResults int) []Group {
	e, err := newEvaluator(in, nil)
	if err != nil {
		panic(err)
	}
	return partition(e, gamma, maxResults)
}

// partition is Partition over a built evaluator's adjacency (resultsOf
// for the tuple → results index, basesOf for each result's tuples), with
// cooperative cancellation through e.bs: the merge loop polls once per
// heap pop, so even degenerate sharing graphs observe deadlines promptly.
func partition(e *evaluator, gamma, maxResults int) []Group {
	bs, n := e.bs, len(e.basesOf)
	// Pairwise result weights (shared base tuples), counted over the
	// tuple → results index so sparse sharing stays far from O(n²). An
	// occurrence list is ascending in result index, so a < b.
	type edge struct{ a, b int }
	weight := map[edge]int{}
	// Pair counting is quadratic in per-tuple co-occurrence; keep the
	// deadline responsive while the weight map is built.
	for _, occs := range e.resultsOf {
		bs.poll()
		for i, oa := range occs {
			for _, ob := range occs[i+1:] {
				weight[edge{int(oa.ri), int(ob.ri)}]++
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

	// A root is the smallest result of its group (unions attach the
	// higher root under the lower), so an ascending scan meets every root
	// before its members: groups come out in ascending root order, their
	// results ascending, carved from one flat array by the union sizes.
	groupOf := make([]int, n)
	flat := make([]int, n)
	groups := make([]Group, 0)
	for ri, off := 0, 0; ri < n; ri++ {
		bs.poll()
		r := find(ri)
		if r == ri {
			groupOf[ri] = len(groups)
			groups = append(groups, Group{Results: flat[off : off : off+size[ri]]})
			off += size[ri]
		}
		g := &groups[groupOf[r]]
		g.Results = append(g.Results, ri)
	}
	// Each group's tuples: the sorted union of its results' lists,
	// deduplicated by stamping the group number per tuple.
	stamp := make([]int, len(e.resultsOf))
	flatBase := make([]int, 0, len(e.baseBuf))
	for gi := range groups {
		bs.poll()
		g, start := &groups[gi], len(flatBase)
		for _, ri := range g.Results {
			for _, bi := range e.basesOf[ri] {
				if stamp[bi] != gi+1 {
					stamp[bi] = gi + 1
					flatBase = append(flatBase, bi)
				}
			}
		}
		g.Base = flatBase[start:len(flatBase):len(flatBase)]
		sort.Ints(g.Base)
	}
	return groups
}
