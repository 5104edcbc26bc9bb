package strategy

import (
	"cmp"
	"context"
	"slices"

	"pcqe/internal/conf"
	"pcqe/internal/fault"
)

// Greedy is the paper's two-phase greedy algorithm (Section 4.2,
// Figure 6). Phase 1 repeatedly raises by δ the base tuple with the
// maximum gain* = Σ_λ ΔF_λ / Δcost (summing over still-unsatisfied
// results the tuple contributes to) until the required number of results
// reaches β. Phase 2 walks the raised tuples in ascending final gain*
// and lowers each by δ steps as long as the requirement stays met,
// undoing increments the aggressive first phase did not need.
type Greedy struct {
	// SkipRefinement disables phase 2 (the paper's "one-phase" baseline
	// in Figures 11(b) and 11(e)).
	SkipRefinement bool
	// Incremental recomputes gains only for tuples whose results were
	// touched by the previous pick instead of rescanning every tuple
	// each iteration, and selects the best gain through a lazy max-heap
	// (stale entries are discarded on pop) instead of a linear scan. It
	// produces the same plan (ties break on the lowest index either
	// way) and is the ablation in BenchmarkAblationGainIncremental. The
	// paper's algorithm rescans; Figure 11(b)/(c) keep using the
	// faithful full-rescan mode, while the engine, the D&C group solves
	// and D&C's top-up run incremental.
	Incremental bool
}

// Name implements Solver.
func (g *Greedy) Name() string {
	switch {
	case g.SkipRefinement:
		return "greedy-1phase"
	case g.Incremental:
		return "greedy-incremental"
	default:
		return "greedy"
	}
}

// gainEntry is one lazy-heap element: the gain value at push time and
// the base-tuple index. An entry is stale (and discarded on pop) when
// its gain no longer matches the current gains[] value.
type gainEntry struct {
	gain float64
	bi   int
}

// gainHeap is a hand-rolled binary max-heap over gainEntry, ordered by
// descending gain, then ascending index — exactly the full rescan's
// arg-max tie-breaking. It avoids container/heap's interface boxing,
// which showed up as allocation pressure in the incremental profile.
type gainHeap struct{ es []gainEntry }

func gainLess(a, b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.bi < b.bi
}

func (h *gainHeap) push(e gainEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !gainLess(h.es[i], h.es[parent]) {
			break
		}
		h.es[i], h.es[parent] = h.es[parent], h.es[i]
		i = parent
	}
}

// popTop removes and returns the maximum entry; callers must check
// len(h.es) > 0 first.
func (h *gainHeap) popTop() gainEntry {
	top := h.es[0]
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es = h.es[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && gainLess(h.es[l], h.es[best]) {
			best = l
		}
		if r < n && gainLess(h.es[r], h.es[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.es[i], h.es[best] = h.es[best], h.es[i]
		i = best
	}
	return top
}

// SolveContext implements Solver. Greedy is anytime from the end of
// phase 1 onward: once the aggressive increase phase has satisfied the
// requirement, every further interruption returns the latest feasible
// snapshot (tagged Plan.Partial, missing only refinement) together with
// a *BudgetExceededError; interruption during phase 1 returns
// (nil, *BudgetExceededError) since no feasible plan exists yet.
func (g *Greedy) SolveContext(ctx context.Context, in *Instance, b Budget) (*Plan, error) {
	return runSolve(ctx, g.Name(), in, b, func(r *solveRun) (*Plan, error) {
		return g.solveCore(r.e, &r.snap)
	})
}

// greedyScratch is raise's working memory. It lives on the evaluator so
// that group after group of a divide-and-conquer worker reuses it.
type greedyScratch struct {
	gains, lastGain []float64
	heap            gainHeap
	dirtyMark       []bool
	dirtyList       []int
	raisedMark      []bool
	raised          []int
}

// solveCore is the two-phase algorithm itself, on an evaluator that
// stands at its instance's initial confidences and has passed the
// feasibility probe. Budget exhaustion unwinds as a budgetStop panic
// toward whichever boundary installed e.bs; inc receives feasible
// snapshots as they form so that boundary can honor the anytime
// contract. With e.bs == nil nothing can interrupt the solve and no
// snapshot is taken.
func (g *Greedy) solveCore(e *evaluator, inc *snapshot) (*Plan, error) {
	nodes, err := g.raise(e, SiteGreedyPhase1)
	if err != nil {
		return nil, err
	}
	// Phase 1 satisfied the requirement: from here on there is always a
	// feasible plan to return, however the solve is interrupted.
	keep := func() {
		if e.bs != nil && inc != nil {
			inc.p, inc.sat, inc.nodes, inc.taken = append(inc.p[:0], e.p...), append(inc.sat[:0], e.satisfied...), nodes, true
		}
	}
	keep()
	if !g.SkipRefinement {
		// Ascending final gain*, ties by index.
		order, lastGain := e.greedy.raised, e.greedy.lastGain
		slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(lastGain[a], lastGain[b]), cmp.Compare(a, b)) })
		reduce(e, order, SiteGreedyPhase2, keep)
	}
	return e.plan(nodes), nil
}

// raise is phase 1, aggressive increase: from the evaluator's current
// confidences it raises by δ the tuple of maximum gain* until Need
// results reach β, passing the probe site once per step. It returns the
// gain evaluations spent, and ErrInfeasible when no step is left. It
// leaves the raised tuples, and each one's final gain*, in e.greedy.
func (g *Greedy) raise(e *evaluator, site string) (nodes int, err error) {
	in, bs := e.in, e.bs

	// gainOf prices one δ step of tuple bi (the last step clamps to the
	// tuple's maximum); a negative value marks the tuple as exhausted
	// or useless. The step price is memoized per tuple in the evaluator
	// and invalidated when the tuple's confidence moves.
	gainOf := func(bi int) float64 {
		next, c := e.stepPrice(bi)
		if next == e.p[bi] {
			return -1
		}
		df := e.deltaF(bi, next)
		nodes++
		if c <= 0 {
			if df > 0 {
				return inf
			}
			return -1
		}
		return df / c
	}

	sc := &e.greedy
	sc.gains, sc.lastGain = resize(sc.gains, len(in.Base)), resize(sc.lastGain, len(in.Base))
	gains, lastGain := sc.gains, sc.lastGain // lastGain: final gain* per raised tuple
	// Warm every unsatisfied result's derivative row in one sweep before
	// the initial gain sweep faults them in one by one.
	e.primeDerivs()
	// The initial gain sweep evaluates a lineage delta per tuple — as
	// much work as a phase-1 pick — so it checkpoints like one.
	h := &sc.heap
	h.es = h.es[:0]
	for i := range in.Base {
		bs.poll()
		if gains[i] = gainOf(i); g.Incremental && gains[i] > 0 {
			h.push(gainEntry{gain: gains[i], bi: i})
		}
	}
	sc.dirtyMark, sc.raisedMark = resize(sc.dirtyMark, len(in.Base)), resize(sc.raisedMark, len(in.Base))
	sc.raised = sc.raised[:0]
	dirtyMark := sc.dirtyMark

	for e.nSat < in.Need {
		fault.Probe(site)
		bs.poll()
		pick, best := -1, 0.0
		if g.Incremental {
			// Lazy max-heap: pop until the top entry matches the current
			// gain of its tuple; stale snapshots are simply discarded
			// (the dirty-update below re-pushed the live value).
			for len(h.es) > 0 {
				top := h.popTop()
				if top.gain != gains[top.bi] {
					continue
				}
				pick, best = top.bi, top.gain
				break
			}
		} else {
			for i := range in.Base {
				gains[i] = gainOf(i)
			}
			for i, gn := range gains {
				if gn > best {
					pick, best = i, gn
				}
			}
		}
		if pick < 0 {
			// No positive gain anywhere. Feasibility was established, so
			// this means every unsatisfied result needs multi-tuple
			// increments whose single steps show zero marginal gain —
			// push the cheapest available step instead to keep moving.
			pick = cheapestStep(in, e)
			if pick < 0 {
				return nodes, ErrInfeasible
			}
		}
		b := in.Base[pick]
		next := stepUp(b, in.Delta, e.p[pick])
		if next == e.p[pick] {
			return nodes, ErrInfeasible // defensive; pick was validated
		}
		bs.step()
		e.setP(pick, next)
		if !sc.raisedMark[pick] {
			sc.raisedMark[pick] = true
			sc.raised = append(sc.raised, pick)
		}
		lastGain[pick] = best
		if g.Incremental {
			// Only tuples sharing a result with the pick can change. The
			// dirty set reuses a mark array and scratch list across picks
			// instead of allocating a map each iteration.
			dirtyMark[pick] = true
			sc.dirtyList = append(sc.dirtyList[:0], pick)
			for _, oc := range e.resultsOf[pick] {
				for _, bi := range e.basesOf[oc.ri] {
					if !dirtyMark[bi] {
						dirtyMark[bi] = true
						sc.dirtyList = append(sc.dirtyList, bi)
					}
				}
			}
			for _, bi := range sc.dirtyList {
				dirtyMark[bi] = false
				gains[bi] = gainOf(bi)
				if gains[bi] > 0 {
					h.push(gainEntry{gain: gains[bi], bi: bi})
				}
			}
		}
	}
	return nodes, nil
}

// reduce is phase 2, refinement: it walks order and lowers each tuple by
// δ steps, down to its initial confidence, for as long as Need results
// stay at β, undoing the first step that breaks the requirement. It
// passes the probe site once per attempted step and calls snapshot after
// each kept one: the refined state is feasible and strictly cheaper.
func reduce(e *evaluator, order []int, site string, snapshot func()) {
	in, bs := e.in, e.bs
	for _, bi := range order {
		for e.nSat >= in.Need && conf.GT(e.p[bi], in.Base[bi].P) {
			fault.Probe(site)
			bs.poll()
			bs.step()
			prev := e.p[bi]
			e.setP(bi, stepDown(in.Base[bi], in.Delta, prev))
			if e.nSat < in.Need {
				e.setP(bi, prev) // undo: this step was load-bearing
				break
			}
			snapshot()
		}
	}
}

// cheapestStep returns the index of the tuple with the cheapest
// available δ increment that touches at least one unsatisfied result, or
// -1 when none exists.
func cheapestStep(in *Instance, e *evaluator) int {
	best, bestCost := -1, 0.0
	for bi := range in.Base {
		e.bs.poll()
		next, c := e.stepPrice(bi)
		if next == e.p[bi] {
			continue
		}
		touches := false
		for _, oc := range e.resultsOf[bi] {
			if !e.satisfied[oc.ri] {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		if best < 0 || c < bestCost {
			best, bestCost = bi, c
		}
	}
	return best
}

const inf = 1e300
