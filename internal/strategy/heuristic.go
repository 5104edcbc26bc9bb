package strategy

import (
	"cmp"
	"context"
	"math"
	"slices"

	"pcqe/internal/conf"
	"pcqe/internal/fault"
)

// Heuristic is the paper's depth-first branch-and-bound search
// (Section 4.1): each base tuple is a search variable whose domain is
// {p, p+δ, ..., maxP}; a node assigns the next variable a value, and a
// partial assignment is a solution once at least Need results reach β.
// The current best cost always prunes ("Naive" mode); the four
// heuristics add:
//
//	H1 — order variables by descending costβ (the minimum cost at which
//	     the tuple alone can push one of its results to β), so cheap,
//	     impactful tuples are assigned deep where solutions form fast;
//	H2 — if after assigning a value every result the tuple contributes
//	     to already meets β, higher values for it are pure waste: prune
//	     the right siblings;
//	H3 — if raising all unassigned tuples to their maxima still cannot
//	     reach Need, prune the subtree;
//	H4 — if the current cost plus the cheapest possible next increment
//	     already exceeds the best cost, prune the subtree.
type Heuristic struct {
	// UseH1..UseH4 toggle the individual heuristics (for Figure 11(a)
	// and 11(d)).
	UseH1, UseH2, UseH3, UseH4 bool
	// GreedyBound seeds the upper bound with the two-phase greedy
	// solution before searching (Figure 11(d)).
	GreedyBound bool
}

// NewHeuristic returns the full configuration: all four heuristics on,
// greedy-seeded bound.
func NewHeuristic() *Heuristic {
	return &Heuristic{UseH1: true, UseH2: true, UseH3: true, UseH4: true, GreedyBound: true}
}

// Name implements Solver.
func (h *Heuristic) Name() string { return "heuristic" }

type heuristicSearch struct {
	*Heuristic
	in *Instance
	// e holds the search state; e.bs carries the solve's
	// budget/cancellation state (nil when unbudgeted), which dfs polls
	// at every node expansion.
	e *evaluator
	// maxEval mirrors the search state but keeps every *unassigned*
	// variable at its maximum; its satisfied count is exactly H3's
	// reachability bound and is maintained incrementally. A D&C worker
	// supplies its own; prepare makes one otherwise.
	maxEval  *evaluator
	best     *Plan
	bestCost float64
	nodes    int
	// prepare's tables, in buffers a D&C worker reuses group to group:
	// the variable order (base indices), H1's ordering key per base
	// index, and cheapestInc[i], the cost of one δ step from the initial
	// confidence for order[i] — a lower bound on any increment of that
	// variable used by H4 — with minIncSuffix[d] = min over order[d:] of
	// cheapestInc (H4's bound for the remaining variables).
	order                               []int
	costBeta, cheapestInc, minIncSuffix []float64
}

// SolveContext implements Solver: the search is anytime — on deadline
// or budget exhaustion it returns the best incumbent found so far (the
// greedy seed or the best DFS solution, tagged Plan.Partial) together
// with a *BudgetExceededError.
func (h *Heuristic) SolveContext(ctx context.Context, in *Instance, b Budget) (*Plan, error) {
	return runSolve(ctx, h.Name(), in, b, h.search)
}

func (h *Heuristic) search(r *solveRun) (*Plan, error) {
	s := &heuristicSearch{Heuristic: h, in: r.e.in, e: r.e, bestCost: math.Inf(1)}
	// However the search ends — completed, or unwinding toward the
	// boundary, whose recovery runs after this — the best plan so far is
	// the incumbent and counts the nodes expanded by then.
	defer func() {
		if s.best == nil {
			s.best = r.snap.plan(s.in)
		}
		if s.best != nil {
			s.best.Nodes = s.nodes
		}
		r.incumbent = s.best
	}()
	s.prepare()

	if h.GreedyBound {
		// The greedy seed runs on the search's own evaluator and budget;
		// its feasible snapshots land in r.snap as they form, so a budget
		// unwind mid-seed still leaves the boundary an incumbent to return.
		if gp, err := (&Greedy{Incremental: true}).solveCore(s.e, &r.snap); err == nil {
			s.best, s.bestCost = gp, gp.Cost
		}
		s.e.reset()
	}

	// The initial state may already satisfy the requirement at zero
	// cost.
	if s.e.nSat >= s.in.Need {
		return s.e.plan(0), nil
	}

	s.dfs(0, 0)
	if s.best == nil {
		// Cannot happen for feasible instances with an exhaustive
		// search, but guard against a node budget that was too small.
		return nil, ErrInfeasible
	}
	return s.best, nil
}

// prepare builds the ancillary search structures: the variable order
// (H1 or instance order), the per-variable cheapest-increment table,
// its suffix minima (H4), and the H3 mirror evaluator with all
// variables at their maxima.
func (s *heuristicSearch) prepare() {
	in := s.in
	s.order = resize(s.order, len(in.Base))
	for i := range s.order {
		s.order[i] = i
	}
	if s.UseH1 {
		s.costBeta = costBetas(s.e, s.costBeta)
		cb := s.costBeta
		// Descending: costly near the root.
		slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(cb[b], cb[a]) })
	}
	s.cheapestInc = resize(s.cheapestInc, len(in.Base))
	for i, b := range in.Base {
		s.e.bs.poll()
		next := b.P + in.Delta
		if next > b.maxP() {
			next = b.maxP()
		}
		s.cheapestInc[i] = b.Cost.Increment(b.P, next)
	}
	s.minIncSuffix = resize(s.minIncSuffix, len(s.order)+1)
	s.minIncSuffix[len(s.order)] = math.Inf(1)
	//lint:allow ctxpoll O(n) suffix-min arithmetic over the already-built
	// increment table; no lineage evaluation happens here.
	for d := len(s.order) - 1; d >= 0; d-- {
		s.minIncSuffix[d] = math.Min(s.minIncSuffix[d+1], s.cheapestInc[s.order[d]])
	}
	if s.UseH3 {
		if s.maxEval == nil {
			s.maxEval = blankEvaluator(s.e.bs)
		}
		s.maxEval.mirror(s.e)
		for i, b := range in.Base {
			s.maxEval.setP(i, b.maxP())
		}
	}
}

// dfs assigns values to order[depth:]; the evaluator holds the values of
// order[:depth] (and initial confidences beyond), and costSoFar prices
// that partial assignment.
func (s *heuristicSearch) dfs(depth int, costSoFar float64) {
	if depth == len(s.order) {
		return
	}
	bi := s.order[depth]
	b := s.in.Base[bi]
	orig := b.P
	maxP := b.maxP()

	for v := orig; ; v += s.in.Delta {
		if v > maxP {
			// Final partial step to the exact maximum, if the grid
			// overshot and we have not tried maxP yet.
			if conf.LT(v-s.in.Delta, maxP) {
				v = maxP
			} else {
				break
			}
		}
		s.nodes++
		// Cooperative checkpoint: fault probe plus budget/cancellation
		// poll (unwinds to the solver boundary on exhaustion).
		fault.Probe(SiteHeuristicDFS)
		s.e.bs.node()
		s.e.setP(bi, v)
		if s.UseH3 {
			s.maxEval.setP(bi, v)
		}
		cost := costSoFar + b.Cost.Increment(orig, v)

		// Cost bound (always on — this is the "Naive" pruning).
		if cost >= s.bestCost {
			break // higher values of this variable only cost more
		}

		if s.e.nSat >= s.in.Need {
			// Solution at this node; record and stop growing this
			// variable (higher values cannot be cheaper).
			s.best = s.e.plan(s.nodes)
			s.bestCost = s.best.Cost
			break
		}

		// H3: can the remaining variables (at their maxima) still reach
		// Need? The mirror evaluator holds exactly that state.
		if s.UseH3 && s.maxEval.nSat < s.in.Need {
			// Raising this variable further may still help, so continue
			// the value loop but do not descend.
			continue
		}

		// H4: even the cheapest further increment busts the bound —
		// prune the subtree below this node. Right siblings stay: a
		// higher value of this variable could itself be a (cheaper than
		// bestCost) solution, and the plain cost bound terminates the
		// value loop as soon as that stops being possible.
		if s.UseH4 {
			minInc := s.minIncSuffix[depth+1]
			if math.IsInf(minInc, 1) {
				minInc = 0
			}
			if cost+minInc >= s.bestCost {
				continue
			}
		}

		s.dfs(depth+1, cost)

		// H2: every result this tuple feeds is satisfied — more of this
		// tuple is waste.
		if s.UseH2 {
			allSat := true
			for _, oc := range s.e.resultsOf[bi] {
				if !s.e.satisfied[oc.ri] {
					allSat = false
					break
				}
			}
			if allSat {
				break
			}
		}
		if v >= maxP {
			break
		}
	}
	s.e.setP(bi, orig)
	if s.UseH3 {
		s.maxEval.setP(bi, maxP)
	}
}

// costBetas computes the H1 ordering key for every base tuple: the
// minimum cost of raising the tuple alone (others at their initial
// confidence) until one of its results reaches β. When even the maximum
// cannot get there, the paper adjusts the key to cost_max / (F_max/β)
// where F_max is the best result confidence the tuple can reach. The
// grid walk performs full formula evaluations, so it shares the solve's
// budget state: a deadline can interrupt it via the pivot hook. The
// walk runs on e, which must stand at the initial confidences and is
// returned to them tuple by tuple. The keys fill dst, resized.
func costBetas(e *evaluator, dst []float64) []float64 {
	out := resize(dst, len(e.in.Base))
	for bi, b := range e.in.Base {
		out[bi] = costBetaOf(e.in, e, bi, b)
	}
	return out
}

func costBetaOf(in *Instance, e *evaluator, bi int, b BaseTuple) float64 {
	orig := b.P
	defer e.setP(bi, orig)
	// Walk the grid upward until some associated result reaches β.
	for v := orig; ; v += in.Delta {
		if v > b.maxP() {
			v = b.maxP()
		}
		e.setP(bi, v)
		for _, oc := range e.resultsOf[bi] {
			if conf.GE(e.resultProb[oc.ri], in.Beta) {
				return b.Cost.Increment(orig, v)
			}
		}
		if v >= b.maxP() {
			break
		}
	}
	// Unreachable alone: adjusted key cost_max / (F_max/β).
	fMax := 0.0
	for _, oc := range e.resultsOf[bi] {
		if e.resultProb[oc.ri] > fMax {
			fMax = e.resultProb[oc.ri]
		}
	}
	costMax := b.Cost.Increment(orig, b.maxP())
	if fMax <= 0 {
		return costMax / 1e-9 // contributes nothing: sort it to the root
	}
	return costMax / (fMax / in.Beta)
}
