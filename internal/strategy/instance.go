// Package strategy implements the paper's strategy-finding component:
// given intermediate query results whose confidence falls below a policy
// threshold β, find the cheapest set of base-tuple confidence increments
// (on a δ grid) that pushes at least a required number of results to β.
// The problem is a nonlinear constrained optimization and is NP-hard; the
// paper contributes three algorithms, all implemented here:
//
//   - Heuristic: depth-first branch and bound with four pruning
//     heuristics (H1 ordering, H2 sibling pruning, H3 reachability
//     pruning, H4 marginal-cost pruning), optionally seeded with the
//     greedy solution as an initial upper bound.
//   - Greedy: a two-phase algorithm — an aggressive gain-maximizing
//     increase phase followed by a refinement phase that undoes
//     unnecessary increments.
//   - DivideAndConquer: partitions the result-sharing graph, solves each
//     group (greedy, plus heuristic search for small groups), then
//     combines and refines.
//
// A brute-force oracle for tiny instances supports testing.
package strategy

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"pcqe/internal/conf"
	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// BaseTuple is one improvable data item in the optimization instance.
type BaseTuple struct {
	// Var is the lineage variable the result formulas use for this
	// tuple.
	Var lineage.Var
	// P is the current confidence.
	P float64
	// MaxP is the maximum attainable confidence (at most 1). The zero
	// value means "no cap" and is treated as 1.
	MaxP float64
	// Cost prices increments of this tuple's confidence.
	Cost cost.Function
}

// Result is one intermediate query result below the threshold.
type Result struct {
	// ID is an opaque caller identifier (e.g. row index).
	ID int
	// Formula is the result's lineage over the instance's base tuples.
	Formula *lineage.Expr
}

// Instance is a confidence-increment problem.
type Instance struct {
	// Base lists the base tuples whose confidence may be raised.
	Base []BaseTuple
	// Results lists the intermediate results below the threshold.
	Results []Result
	// Beta is the confidence threshold results must reach (F ≥ β, as in
	// the paper's constraint system).
	Beta float64
	// Need is the number of results that must reach Beta, i.e.
	// ⌈(θ−θ′)·n⌉ in the paper.
	Need int
	// Delta is the confidence increment granularity (the paper uses
	// 0.1).
	Delta float64
}

// Validate checks structural soundness: positive finite δ, β in (0,1],
// finite confidences and cost increments (NaN/Inf would silently poison
// every downstream plan), formulas monotone and referring only to known
// variables, no duplicate base-tuple variables, Need within range.
func (in *Instance) Validate() error {
	_, err := in.index()
	return err
}

// index is Validate returning each variable's base index (newEvaluator's).
func (in *Instance) index() (map[lineage.Var]int, error) {
	if math.IsNaN(in.Delta) || in.Delta <= 0 || in.Delta > 1 {
		return nil, fmt.Errorf("strategy: delta %g outside (0,1]", in.Delta)
	}
	if math.IsNaN(in.Beta) || in.Beta <= 0 || in.Beta > 1 {
		return nil, fmt.Errorf("strategy: beta %g outside (0,1]", in.Beta)
	}
	if in.Need < 0 || in.Need > len(in.Results) {
		return nil, fmt.Errorf("strategy: need %d outside [0,%d]", in.Need, len(in.Results))
	}
	idx := make(map[lineage.Var]int, len(in.Base))
	for i, b := range in.Base {
		if math.IsNaN(b.P) || b.P < 0 || b.P > 1 {
			return nil, fmt.Errorf("strategy: base %d confidence %g outside [0,1]", i, b.P)
		}
		if math.IsNaN(b.MaxP) {
			return nil, fmt.Errorf("strategy: base %d max confidence %g invalid", i, b.MaxP)
		}
		maxP := b.MaxP
		if maxP == 0 {
			maxP = 1
		}
		if maxP < b.P || maxP > 1 {
			return nil, fmt.Errorf("strategy: base %d max confidence %g invalid", i, b.MaxP)
		}
		if b.Cost == nil {
			return nil, fmt.Errorf("strategy: base %d has no cost function", i)
		}
		// Spot-check the cost function over the tuple's full range: a
		// NaN, infinite or negative full-range increment would corrupt
		// plan costs and break every pruning bound.
		if c := b.Cost.Increment(b.P, maxP); math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			return nil, fmt.Errorf("strategy: base %d cost function yields invalid increment %g over [%g,%g]", i, c, b.P, maxP)
		}
		if _, dup := idx[b.Var]; dup {
			return nil, fmt.Errorf("strategy: duplicate base variable %d", int(b.Var))
		}
		idx[b.Var] = i
	}
	for i, r := range in.Results {
		if r.Formula == nil {
			return nil, fmt.Errorf("strategy: result %d has no formula", i)
		}
		if !r.Formula.Monotone() {
			return nil, fmt.Errorf("strategy: result %d formula is not monotone; confidence increments cannot plan over negation", i)
		}
		known, unknown := true, lineage.Var(0)
		r.Formula.WalkVars(func(v lineage.Var) {
			if _, ok := idx[v]; !ok && (known || v < unknown) {
				known, unknown = false, v
			}
		})
		if !known {
			return nil, fmt.Errorf("strategy: result %d references unknown variable %d", i, int(unknown))
		}
	}
	return idx, nil
}

// Fingerprint returns a short stable identifier of the instance shape
// (sizes, parameters, variables and confidences), used to correlate
// typed solver errors with the instance that triggered them without
// logging the instance itself.
func (in *Instance) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(len(in.Base)))
	put(uint64(len(in.Results)))
	put(math.Float64bits(in.Beta))
	put(math.Float64bits(in.Delta))
	put(uint64(in.Need))
	for _, b := range in.Base {
		put(uint64(b.Var))
		put(math.Float64bits(b.P))
	}
	for _, r := range in.Results {
		if r.Formula != nil {
			put(uint64(len(r.Formula.Vars())))
		}
	}
	return fmt.Sprintf("%dr%db-%016x", len(in.Results), len(in.Base), h.Sum64())
}

// maxP returns the tuple's effective maximum confidence.
func (b BaseTuple) maxP() float64 {
	//lint:allow confrange MaxP==0 is the "unset" zero-value sentinel (meaning
	// "no cap, default to 1"), not a numeric confidence comparison.
	if b.MaxP == 0 {
		return 1
	}
	return b.MaxP
}

// Plan is a solver's output: the target confidence per base tuple.
type Plan struct {
	// NewP maps base-tuple index (into Instance.Base) to the planned
	// confidence. Every tuple appears; unchanged tuples keep their
	// original P.
	NewP []float64
	// Cost is the total increment cost of the plan.
	Cost float64
	// Satisfied lists the indices (into Instance.Results) of results at
	// or above Beta under the plan.
	Satisfied []int
	// Nodes counts search nodes (heuristic) or gain evaluations
	// (greedy/D&C); useful for benchmarking pruning effectiveness.
	Nodes int
	// Partial marks an anytime result: the solver stopped on a deadline
	// or budget exhaustion (or degraded sub-solves) before completing
	// its search. The plan still satisfies the instance and passes
	// Verify; it just carries no optimality claim.
	Partial bool
	// Degraded counts divide-and-conquer group sub-solves that panicked
	// or ran out of budget and were skipped or served by a cheaper
	// fallback algorithm.
	Degraded int
}

// Solver finds a confidence-increment plan for an instance.
type Solver interface {
	// Name identifies the algorithm (for benches and reports).
	Name() string
	// SolveContext computes a plan under ctx and b. It returns
	// ErrInfeasible when even raising every tuple to its maximum cannot
	// satisfy the instance. On budget or deadline exhaustion it returns
	// the best incumbent plan so far (tagged Plan.Partial; nil when none
	// is feasible yet) together with a *BudgetExceededError, so callers
	// check the error before assuming optimality and check the plan
	// before assuming total failure.
	SolveContext(ctx context.Context, in *Instance, b Budget) (*Plan, error)
}

// ErrInfeasible reports that no assignment of confidences within the
// tuples' maxima satisfies the required number of results.
var ErrInfeasible = fmt.Errorf("strategy: instance is infeasible")

// occ is one occurrence of a base tuple in a result: the result index
// and the tuple's dense slot in that result's compiled program. dp
// caches the address of the occurrence's cell in the result's reusable
// derivative row — the row is carved once per targeting and refilled in
// place, so the pointer stays valid and saves two dependent loads per
// gain evaluation on the hot path.
type occ struct {
	ri   int32
	slot int32
	dp   *float64
}

// evaluator tracks current confidences and per-result probabilities with
// incremental recomputation when one tuple changes. Every result formula
// is compiled once per solve (newEvaluator) and re-evaluated through its
// flat program — the one evaluator the solvers have. The tree walk in
// internal/lineage is the reference that Verify and the differential
// tests hold it to.
//
// Lifecycle: newEvaluator builds the solve's one compiling evaluator;
// retarget points a worker-owned evaluator at a group of it, borrowing
// the immutable programs and adjacency by result index and reusing every
// slice, row buffer and machine by capacity; reset returns an evaluator
// to the initial confidences between solver phases. Whatever state a
// recovered panic or budget unwind left behind, the next retarget
// rebuilds all of it (machines are Reset, which clears their pin flags).
type evaluator struct {
	in *Instance
	// bs is the owning solve's budget state (nil when unbudgeted). hook
	// is its pivot checkpoint, installed on every machine: it counts
	// Shannon pivot enumerations against the budget and polls for
	// cancellation, making formula evaluation — the solvers' deepest and
	// potentially exponential loop — interruptible.
	bs         *budgetState
	hook       func(int)
	p          []float64 // current confidence per base tuple
	resultProb []float64
	initProb   []float64 // resultProb at the initial confidences, for reset
	satisfied  []bool
	nSat       int

	// Adjacency, as slice headers over flat buffers: resultsOf[bi] lists
	// tuple bi's occurrences (ascending result index), basesOf[ri] the
	// tuples result ri mentions, in its program's slot order.
	// baseEnd[ri] is where basesOf[ri] ends in baseBuf; the per-result
	// slot and derivative rows sit at the same offsets of their buffers.
	resultsOf [][]occ
	basesOf   [][]int
	occBuf    []occ
	occN      []int32
	baseBuf   []int
	baseEnd   []int
	// remap is retarget's scratch: source tuple index → local.
	remap []int32

	// Per-result program (shared, immutable), machine, dense
	// slot-indexed probabilities, and a reusable derivative row
	// invalidated lazily (recompute only flips derivOK; the row is
	// refilled on demand by one fused ProbDeriv sweep).
	progs     []*lineage.Program
	machines  []*lineage.Machine
	slotProbs [][]float64
	derivRow  [][]float64
	slotBuf   []float64
	derivBuf  []float64
	derivOK   []bool

	// maxShared holds every tuple's maximum confidence and maxRow is the
	// scratch slot row satAtMax gathers it into, one result at a time.
	maxShared []float64
	maxRow    []float64

	// Step-price cache: the next δ-grid confidence and its incremental
	// cost per tuple depend only on the tuple's current confidence, so
	// they are memoized here and invalidated by setP. This keeps the
	// cost-model transcendentals (exp/log families) out of the greedy
	// gain loop, which otherwise re-prices 10K unchanged tuples per pick.
	stepNext []float64
	stepCost []float64
	stepOK   []bool

	// greedy is the greedy solver's per-solve scratch, kept here so a
	// re-targeted evaluator carries it from group to group.
	greedy greedyScratch
}

// resize returns s with length n and every element zeroed, reallocating
// only when its capacity is too small.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// blankEvaluator returns an untargeted evaluator bound to bs.
func blankEvaluator(bs *budgetState) *evaluator {
	e := &evaluator{bs: bs}
	if bs != nil {
		e.hook = func(n int) {
			fault.Probe(SitePivot)
			bs.pivot(n)
		}
	}
	return e
}

// newEvaluator validates the instance and builds its evaluator at its
// initial confidences, over the variable index validation built. It is
// the one place a solve compiles result formulas, under the limit the
// confidence path applies: a formula sharing more than
// lineage.DefaultSharedLimit variables fails the build with an error
// wrapping lineage.ErrTooManyShared.
func newEvaluator(in *Instance, bs *budgetState) (*evaluator, error) {
	varIdx, err := in.index()
	if err != nil {
		return nil, err
	}
	e := blankEvaluator(bs)
	e.in = in
	e.progs = make([]*lineage.Program, len(in.Results))
	e.baseEnd = make([]int, len(in.Results))
	for ri, r := range in.Results {
		// Compilation is O(|formula|) per result but the instance may carry
		// tens of thousands of results; keep setup interruptible too.
		fault.Probe(SiteCompile)
		bs.poll()
		prog, err := lineage.CompileExact(r.Formula, lineage.DefaultSharedLimit)
		if err != nil {
			return nil, fmt.Errorf("strategy: result %d: %w", ri, err)
		}
		e.progs[ri] = prog
		for _, v := range prog.Vars() {
			e.baseBuf = append(e.baseBuf, varIdx[v])
		}
		e.baseEnd[ri] = len(e.baseBuf)
	}
	e.arm()
	return e, nil
}

// retarget points e at the sub-instance in, whose result i is src's
// result g.Results[i] and whose tuple j is src's tuple g.Base[j]. The
// programs and per-result tuple lists come from src by index —
// read-only, so workers share one src without a lock — and the
// evaluator's own state is rebuilt in place, equal to a fresh build.
func (e *evaluator) retarget(in *Instance, src *evaluator, g Group) {
	e.in = in
	if cap(e.remap) < len(src.p) {
		e.remap = make([]int32, len(src.p))
	}
	// Stale entries are harmless: a group's results mention only the
	// group's tuples, all rewritten here.
	e.remap = e.remap[:len(src.p)]
	for j, bi := range g.Base {
		e.remap[bi] = int32(j)
	}
	e.progs, e.baseBuf, e.baseEnd = e.progs[:0], e.baseBuf[:0], e.baseEnd[:0]
	for _, ri := range g.Results {
		e.bs.poll()
		e.progs = append(e.progs, src.progs[ri])
		for _, bi := range src.basesOf[ri] {
			e.baseBuf = append(e.baseBuf, int(e.remap[bi]))
		}
		e.baseEnd = append(e.baseEnd, len(e.baseBuf))
	}
	e.arm()
}

// mirror makes e a copy of src's state that shares src's programs and
// adjacency, read-only, and evaluates no formula: H3's evaluator, which
// only moves confidences and counts satisfied results, and which is
// never re-targeted (that would write into src's adjacency).
func (e *evaluator) mirror(src *evaluator) {
	e.in, e.progs, e.resultsOf, e.basesOf = src.in, src.progs, src.resultsOf, src.basesOf
	e.p, e.slotBuf = append(e.p[:0], src.p...), append(e.slotBuf[:0], src.slotBuf...)
	e.resultProb, e.satisfied, e.nSat = append(e.resultProb[:0], src.resultProb...), append(e.satisfied[:0], src.satisfied...), src.nSat
	nr := len(src.progs)
	e.stepOK, e.derivOK, e.slotProbs = resize(e.stepOK, len(e.p)), resize(e.derivOK, nr), resize(e.slotProbs, nr)
	lo := 0
	for ri, hi := range src.baseEnd {
		e.bs.poll()
		e.slotProbs[ri] = e.slotBuf[lo:hi:hi]
		e.machine(ri)
		lo = hi
	}
}

// machine points e's machine for result ri at its program, making it
// on first use.
func (e *evaluator) machine(ri int) {
	for len(e.machines) <= ri {
		e.machines = append(e.machines, nil)
	}
	if e.machines[ri] == nil {
		e.machines[ri] = lineage.NewMachine(e.progs[ri])
		e.machines[ri].SetPivotHook(e.hook)
	} else {
		e.machines[ri].Reset(e.progs[ri])
	}
}

// arm sizes every state slice for e.in (reusing capacity), wires the
// adjacency and machines from progs/baseBuf/baseEnd, and evaluates the
// initial probabilities (shared-variable machines poll through their
// pivot hooks).
func (e *evaluator) arm() {
	in, bs := e.in, e.bs
	nb, nr, nocc := len(in.Base), len(in.Results), len(e.baseBuf)
	e.p, e.maxShared = resize(e.p, nb), resize(e.maxShared, nb)
	e.stepNext, e.stepCost, e.stepOK = resize(e.stepNext, nb), resize(e.stepCost, nb), resize(e.stepOK, nb)
	//lint:allow ctxpoll bounded O(|Base|) copy of the tuples' confidences and
	// maxima with no lineage work; the result loop below polls.
	for i, b := range in.Base {
		e.p[i], e.maxShared[i] = b.P, b.maxP()
	}
	e.occN, e.occBuf, e.resultsOf = resize(e.occN, nb), resize(e.occBuf, nocc), resize(e.resultsOf, nb)
	for _, bi := range e.baseBuf {
		e.occN[bi]++
	}
	off := 0
	for bi, n := range e.occN {
		e.resultsOf[bi] = e.occBuf[off : off : off+int(n)]
		off += int(n)
	}
	e.resultProb, e.satisfied, e.nSat = resize(e.resultProb, nr), resize(e.satisfied, nr), 0
	e.basesOf, e.slotProbs, e.derivRow = resize(e.basesOf, nr), resize(e.slotProbs, nr), resize(e.derivRow, nr)
	e.slotBuf, e.derivBuf = resize(e.slotBuf, nocc), resize(e.derivBuf, nocc)
	e.derivOK = resize(e.derivOK, nr)
	lo := 0
	for ri, hi := range e.baseEnd {
		bs.poll()
		bases := e.baseBuf[lo:hi:hi]
		e.basesOf[ri] = bases
		e.machine(ri)
		e.slotProbs[ri], e.derivRow[ri] = e.slotBuf[lo:hi:hi], e.derivBuf[lo:hi:hi]
		for s, bi := range bases {
			e.slotProbs[ri][s] = e.p[bi]
			e.resultsOf[bi] = append(e.resultsOf[bi], occ{ri: int32(ri), slot: int32(s), dp: &e.derivRow[ri][s]})
		}
		e.applyProb(ri, e.machines[ri].Prob(e.slotProbs[ri]))
		lo = hi
	}
	e.initProb = append(e.initProb[:0], e.resultProb...)
}

// reset returns the evaluator to the instance's initial confidences —
// the state arm left — by restoring only the tuples that moved and the
// results they feed, without re-evaluating a formula. Solver phases
// sharing one evaluator call it between them.
func (e *evaluator) reset() {
	//lint:allow ctxpoll bounded O(occurrences) restore from initProb with no
	// lineage evaluation; unwinding mid-restore would only tear it.
	for bi, b := range e.in.Base {
		//lint:allow confrange exact no-op guard (see setP): a tuple that
		// never moved holds exactly its initial confidence.
		if e.p[bi] == b.P {
			continue
		}
		e.p[bi] = b.P
		e.stepOK[bi] = false
		for _, oc := range e.resultsOf[bi] {
			ri := int(oc.ri)
			e.slotProbs[ri][oc.slot] = b.P
			e.derivOK[ri] = false
			e.applyProb(ri, e.initProb[ri])
		}
	}
}

func (e *evaluator) recompute(ri int) {
	e.bs.poll()
	// Invalidate lazily: the dense row is refilled (and reused) only
	// when a gain computation actually needs derivatives.
	e.derivOK[ri] = false
	e.applyProb(ri, e.machines[ri].Prob(e.slotProbs[ri]))
}

// applyProb records a freshly computed probability for result ri and
// maintains the satisfaction bookkeeping.
func (e *evaluator) applyProb(ri int, prob float64) {
	e.resultProb[ri] = prob
	sat := conf.GE(prob, e.in.Beta)
	if sat != e.satisfied[ri] {
		e.satisfied[ri] = sat
		if sat {
			e.nSat++
		} else {
			e.nSat--
		}
	}
}

// primeDerivs refreshes the stale derivative row of every still
// unsatisfied result in one sweep, so a greedy solve's initial gain sweep
// reads warm rows instead of faulting them in occurrence by occurrence.
// The lazy per-result refresh in deltaF still serves the incremental
// picks afterwards; it is the same ProbDeriv call.
func (e *evaluator) primeDerivs() {
	for ri, ok := range e.derivOK {
		e.bs.poll()
		if !ok && !e.satisfied[ri] {
			e.machines[ri].ProbDeriv(e.slotProbs[ri], e.derivRow[ri])
			e.derivOK[ri] = true
		}
	}
}

// setP updates base tuple bi's confidence and refreshes affected results.
func (e *evaluator) setP(bi int, p float64) {
	//lint:allow confrange exact no-op guard: solvers re-apply the identical
	// grid value; an epsilon guard would silently swallow sub-Eps δ steps.
	if e.p[bi] == p {
		return
	}
	e.p[bi] = p
	e.stepOK[bi] = false
	for _, oc := range e.resultsOf[bi] {
		e.slotProbs[oc.ri][oc.slot] = p
		e.recompute(int(oc.ri))
	}
}

// costOf prices confidences p against in's initial ones.
func costOf(in *Instance, p []float64) (total float64) {
	//lint:allow ctxpoll bounded O(|Base|) cost summation that runs inside
	// incumbent-snapshot assembly; unwinding mid-snapshot would tear it.
	for i, b := range in.Base {
		total += b.Cost.Increment(b.P, p[i])
	}
	return total
}

// deltaF returns the summed confidence increase of the unsatisfied
// results mentioning tuple bi if its confidence moved from the current
// value to newP. Probability is multilinear in each variable, so
// ΔF = (newP − p)·(F|v=1 − F|v=0) exactly.
func (e *evaluator) deltaF(bi int, newP float64) float64 {
	cur := e.p[bi]
	//lint:allow confrange exact no-op guard (see setP); the multilinear
	// difference below is exactly 0 for an exactly unchanged confidence.
	if newP == cur {
		return 0
	}
	d := newP - cur
	total := 0.0
	occs := e.resultsOf[bi]
	// Gain probing recomputes derivative rows on demand — real lineage
	// work, so each occurrence passes the cooperative checkpoint.
	for i := range occs {
		e.bs.poll()
		oc := &occs[i]
		ri := int(oc.ri)
		if e.satisfied[ri] {
			continue
		}
		if !e.derivOK[ri] {
			e.machines[ri].ProbDeriv(e.slotProbs[ri], e.derivRow[ri])
			e.derivOK[ri] = true
		}
		total += d * *oc.dp
	}
	return total
}

// stepPrice returns (memoized) the next δ-grid confidence of tuple bi
// and the incremental cost of stepping there from the current
// confidence. next == e.p[bi] (and cost 0) marks the tuple exhausted.
func (e *evaluator) stepPrice(bi int) (next, incCost float64) {
	if e.stepOK[bi] {
		return e.stepNext[bi], e.stepCost[bi]
	}
	return e.stepPriceSlow(bi)
}

func (e *evaluator) stepPriceSlow(bi int) (next, incCost float64) {
	b := e.in.Base[bi]
	n := stepUp(b, e.in.Delta, e.p[bi])
	var c float64
	if n != e.p[bi] {
		c = b.Cost.Increment(e.p[bi], n)
	}
	e.stepNext[bi], e.stepCost[bi] = n, c
	e.stepOK[bi] = true
	return n, c
}

// satAtMax counts the results that reach β when every tuple sits at its
// maximum confidence. It is side-effect free: the evaluator's current
// state is untouched, so a solver can run the feasibility check on the
// evaluator it already built instead of constructing (and compiling)
// a second one.
func (e *evaluator) satAtMax() int {
	sat := 0
	for ri, bases := range e.basesOf {
		e.bs.poll()
		// basesOf is slot-ordered, so the gathered row is the result's slot
		// row with every tuple at its maximum.
		e.maxRow = e.maxRow[:0]
		for _, bi := range bases {
			e.maxRow = append(e.maxRow, e.maxShared[bi])
		}
		if conf.GE(e.machines[ri].Prob(e.maxRow), e.in.Beta) {
			sat++
		}
	}
	return sat
}

// plan snapshots the evaluator's state into a Plan.
func (e *evaluator) plan(nodes int) *Plan {
	return (&snapshot{p: e.p, sat: e.satisfied, nodes: nodes, taken: true}).plan(e.in)
}

// snapshot is a feasible state kept for a budget unwind, in buffers
// reused from one snapshot to the next: only an unwind builds its Plan.
type snapshot struct {
	p     []float64
	sat   []bool
	nodes int
	taken bool
}

// plan is the snapshot as a Plan over in, nil when none was taken.
func (s *snapshot) plan(in *Instance) *Plan {
	if !s.taken {
		return nil
	}
	p := &Plan{NewP: slices.Clone(s.p), Cost: costOf(in, s.p), Nodes: s.nodes}
	for ri, sat := range s.sat {
		if sat {
			p.Satisfied = append(p.Satisfied, ri)
		}
	}
	return p
}

// Verify checks a plan against the instance: confidences within bounds,
// cost consistent, and the required number of results satisfied. It is
// used by tests and by the engine before applying improvements.
func (in *Instance) Verify(p *Plan) error {
	if len(p.NewP) != len(in.Base) {
		return fmt.Errorf("strategy: plan covers %d tuples, instance has %d", len(p.NewP), len(in.Base))
	}
	total := 0.0
	for i, b := range in.Base {
		np := p.NewP[i]
		if conf.LT(np, b.P) {
			return fmt.Errorf("strategy: plan lowers tuple %d below its current confidence", i)
		}
		if conf.GT(np, b.maxP()) {
			return fmt.Errorf("strategy: plan raises tuple %d above its maximum", i)
		}
		total += b.Cost.Increment(b.P, np)
	}
	if math.Abs(total-p.Cost) > 1e-6*(1+math.Abs(total)) {
		return fmt.Errorf("strategy: plan cost %g inconsistent with recomputed %g", p.Cost, total)
	}
	// One map build instead of a per-variable linear scan of Base keeps
	// verification O(N + Σ|formula|) rather than O(N²).
	probs := make(lineage.MapAssignment, len(in.Base))
	for i, b := range in.Base {
		probs[b.Var] = p.NewP[i]
	}
	assign := probs
	sat := 0
	for _, r := range in.Results {
		if conf.GELoose(lineage.Prob(r.Formula, assign), in.Beta) {
			sat++
		}
	}
	if sat < in.Need {
		return fmt.Errorf("strategy: plan satisfies %d results, need %d", sat, in.Need)
	}
	return nil
}

// stepUp returns the next confidence one δ above cur on the grid
// anchored at b.P, clamping the final partial step to maxP. It returns
// cur when the tuple is exhausted.
func stepUp(b BaseTuple, delta, cur float64) float64 {
	next := cur + delta
	if next > b.maxP() {
		next = b.maxP()
	}
	if conf.LE(next, cur) {
		return cur
	}
	return next
}

// stepDown returns the largest grid value (anchored at b.P) strictly
// below cur, never below b.P. When cur sits off-grid (clamped at maxP),
// the step realigns to the grid.
func stepDown(b BaseTuple, delta, cur float64) float64 {
	if conf.LE(cur, b.P) {
		return b.P
	}
	steps := math.Ceil((cur-b.P)/delta-1e-9) - 1
	next := b.P + steps*delta
	if next < b.P {
		next = b.P
	}
	if conf.GE(next, cur) {
		next = cur - delta
		if next < b.P {
			next = b.P
		}
	}
	return next
}
