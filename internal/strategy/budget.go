package strategy

// This file implements the resilient solver runtime: wall-clock and
// work budgets, cooperative cancellation, and the anytime contract.
//
// The strategy-finding problem is NP-hard and exact confidence
// computation over lineage is #P-hard, so every solver here can be made
// to run arbitrarily long by an adversarial (or merely large) instance.
// Every solve therefore runs under a context and a Budget, behind one
// boundary (runSolve): the solvers poll cheap checkpoints inside their
// hot loops (DFS node expansions, greedy gain picks, δ-step
// applications, Shannon pivot enumerations in compiled lineage
// programs) and, on exhaustion, unwind to the boundary via a budgetStop
// panic. The boundary converts the unwind into the anytime contract:
// the best incumbent plan found so far — always a consistent snapshot
// that passes Instance.Verify — tagged Plan.Partial, together with a
// typed *BudgetExceededError naming the resource that ran out. Real
// panics (bugs, injected faults) are likewise recovered there and
// converted to a typed *SolverPanicError carrying the solver name and
// an instance fingerprint, so one poisoned sub-problem cannot kill a
// process.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pcqe/internal/obs"
)

// Budget bounds the work one solve may perform. The zero value means
// unlimited. All limits are cooperative: solvers poll them at
// checkpoints, so a solve returns within one checkpoint interval (not
// one instruction) of exhaustion.
type Budget struct {
	// Timeout is the wall-clock allowance; it combines with any deadline
	// already on the context (the earlier one wins). 0 = none.
	Timeout time.Duration
	// MaxNodes bounds branch-and-bound node expansions (heuristic DFS
	// and brute-force assignments). 0 = unlimited.
	MaxNodes int
	// MaxPivots bounds Shannon pivot-assignment evaluations performed by
	// compiled lineage programs across the whole solve. 0 = unlimited.
	MaxPivots int
	// MaxSteps bounds δ-grid confidence step applications (greedy
	// increase/refinement, D&C combination repair). 0 = unlimited.
	MaxSteps int
	// Workers is the number of worker goroutines a solver with a
	// parallel phase (DivideAndConquer's independent group sub-solves)
	// may use: 0 or 1 solves serially, n > 1 on n workers. Group plans
	// merge in deterministic group order, so the resulting plan is
	// bit-identical for every value; only wall-clock changes.
	Workers int
}

// Validate rejects a negative field, naming it: every limit is either
// zero (none) or a positive allowance, and a negative one would
// otherwise read as "unlimited".
func (b Budget) Validate() error {
	var field string
	var got any
	switch {
	case b.Timeout < 0:
		field, got = "Timeout", b.Timeout
	case b.MaxNodes < 0:
		field, got = "MaxNodes", b.MaxNodes
	case b.MaxPivots < 0:
		field, got = "MaxPivots", b.MaxPivots
	case b.MaxSteps < 0:
		field, got = "MaxSteps", b.MaxSteps
	case b.Workers < 0:
		field, got = "Workers", b.Workers
	default:
		return nil
	}
	return fmt.Errorf("strategy: budget %s must be non-negative, got %v", field, got)
}

// Budget resource names reported by BudgetExceededError.Resource.
const (
	ResourceDeadline = "deadline"
	ResourceCanceled = "canceled"
	ResourceNodes    = "nodes"
	ResourcePivots   = "pivots"
	ResourceSteps    = "steps"
)

// BudgetExceededError reports that a solve stopped early because a
// budget resource (or its context) ran out. The accompanying plan, when
// non-nil, is the solver's best incumbent and passes Instance.Verify.
type BudgetExceededError struct {
	// Solver names the algorithm that was interrupted.
	Solver string
	// Resource names what ran out: one of the Resource* constants.
	Resource string
	// Nodes, Pivots and Steps snapshot the work counters at the stop.
	Nodes, Pivots, Steps int64
	// Err is the underlying context error for deadline/cancellation
	// stops, nil for work-counter stops.
	Err error
}

// Error implements error.
func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("strategy: %s budget exceeded: %s (nodes=%d pivots=%d steps=%d)",
		e.Solver, e.Resource, e.Nodes, e.Pivots, e.Steps)
}

// Unwrap exposes the context error so errors.Is(err, context.Canceled)
// and friends work.
func (e *BudgetExceededError) Unwrap() error { return e.Err }

// SolverPanicError reports a panic recovered at a solver boundary and
// converted into an error, so a poisoned instance or an injected fault
// degrades one solve instead of killing the process.
type SolverPanicError struct {
	// Solver names the algorithm (or sub-solve, e.g. a D&C group) that
	// panicked.
	Solver string
	// Fingerprint identifies the instance shape for correlation.
	Fingerprint string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *SolverPanicError) Error() string {
	return fmt.Sprintf("strategy: %s panicked on instance %s: %v", e.Solver, e.Fingerprint, e.Value)
}

// SolveContext runs s on in under ctx and b: s.SolveContext, spelled as
// a function for callers that hold the solver as a value.
func SolveContext(ctx context.Context, s Solver, in *Instance, b Budget) (*Plan, error) {
	return s.SolveContext(ctx, in, b)
}

// Fault-injection probe sites (see internal/fault). Every cooperative
// checkpoint in the solvers doubles as a probe, so tests can inject
// delays, cancellations and panics at any interruption point.
const (
	SiteHeuristicDFS = "strategy.heuristic.dfs"
	SiteGreedyPhase1 = "strategy.greedy.phase1"
	SiteGreedyPhase2 = "strategy.greedy.phase2"
	SiteDnCPartition = "strategy.dnc.partition"
	SiteDnCGroup     = "strategy.dnc.group"
	SiteDnCCombine   = "strategy.dnc.combine"
	SiteDnCFinish    = "strategy.dnc.finish"
	SiteDnCRefine    = "strategy.dnc.refine"
	SiteBruteForce   = "strategy.bruteforce.assign"
	SitePivot        = "strategy.lineage.pivot"
	SiteCompile      = "strategy.lineage.compile"
)

// ProbeSites lists every fault-injection probe site the solvers pass
// through, for tests that sweep all of them.
func ProbeSites() []string {
	return []string{
		SiteHeuristicDFS, SiteGreedyPhase1, SiteGreedyPhase2,
		SiteDnCPartition, SiteDnCGroup, SiteDnCCombine, SiteDnCFinish,
		SiteDnCRefine, SiteBruteForce, SitePivot, SiteCompile,
	}
}

// budgetStop is the panic value used to unwind a solve to its boundary
// when a budget resource runs out. It never escapes the strategy
// package: runSolve and the divide-and-conquer group boundaries recover
// it.
type budgetStop struct{ cause *BudgetExceededError }

// budgetState is the shared, concurrency-safe bookkeeping of one solve:
// work counters, the stop flag, and the first exhaustion cause. A nil
// *budgetState is valid and means "unbudgeted": every method is a no-op,
// so an
// unbudgeted solve under a background context pays nothing.
//
// Parallel solves fan the state out through worker children (see
// worker): each child counts its own goroutine's work locally while
// forwarding every increment to the shared root, which alone owns the
// limits, the stop flag, the drain flag and the exhaustion cause. The
// root's counters therefore always equal the sum of its children's (plus
// its own direct work), with no gaps — the property the per-worker
// observability spans report and the race tests pin.
type budgetState struct {
	solver string
	done   <-chan struct{}
	ctxErr func() error
	// polls counts this state's (one goroutine's) checkpoints: done is
	// read at the first and then every pollEvery-th, and at every group
	// boundary (pollNow).
	polls uint32

	maxNodes, maxPivots, maxSteps int64
	nodes, pivots, steps          atomic.Int64

	// parent links a worker child back to the solve's root state; nil on
	// the root itself. Only counters live on children — every control
	// field below is read and written through root().
	parent *budgetState

	// stopped flips once; all subsequent checkpoints unwind immediately,
	// which is how exhaustion in one D&C worker goroutine winds down its
	// siblings. draining suppresses the unwind so a driver can cheaply
	// assemble its incumbent from already-computed pieces.
	stopped  atomic.Bool
	draining atomic.Bool

	mu    sync.Mutex
	cause *BudgetExceededError
}

// root returns the state that owns the limits, stop/drain flags and the
// exhaustion cause: the receiver itself for a solve's root state, the
// shared parent for a worker child.
func (s *budgetState) root() *budgetState {
	if s.parent != nil {
		return s.parent
	}
	return s
}

// worker derives a per-goroutine child view of the state for one D&C
// worker (the driver's own work lands on the root directly). Counter
// increments land both on the child — per-worker attribution for the
// observability spans — and on the shared root, which owns the limits,
// so a global budget bounds the sum of all workers' work and exhaustion
// detected through any child stops every sibling at its next
// checkpoint. A nil receiver stays nil: the unbudgeted path costs
// nothing in parallel mode too.
func (s *budgetState) worker() *budgetState {
	if s == nil {
		return nil
	}
	return &budgetState{solver: s.solver, parent: s.root()}
}

// newBudgetState builds the state for one solve. The returned cancel
// func must be deferred (it releases the timeout timer). A nil state is
// returned when neither the budget nor the context can ever interrupt
// the solve, keeping the unbudgeted path allocation-free.
func newBudgetState(solver string, ctx context.Context, b Budget) (*budgetState, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := func() {}
	if b.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, b.Timeout)
	}
	if b.MaxNodes == 0 && b.MaxPivots == 0 && b.MaxSteps == 0 && ctx.Done() == nil {
		return nil, cancel
	}
	return &budgetState{
		solver:    solver,
		done:      ctx.Done(),
		ctxErr:    ctx.Err,
		maxNodes:  int64(b.MaxNodes),
		maxPivots: int64(b.MaxPivots),
		maxSteps:  int64(b.MaxSteps),
	}, cancel
}

// pollEvery bounds the checkpoints a goroutine passes between two reads
// of the context's channel.
const pollEvery = 64

// poll is the basic cooperative checkpoint: it unwinds if the solve was
// already stopped, or if the context is done at the goroutine's first
// checkpoint and every pollEvery-th after it. All control state lives on
// the root, so a worker child polls its parent's flags — exhaustion
// anywhere stops every goroutine of the solve at its next checkpoint.
func (s *budgetState) poll() {
	if s != nil {
		s.polls++
		s.pollNow(s.polls%pollEvery == 1)
	}
}

// pollNow is poll reading the context's channel when readDone, as a
// group boundary does every time.
func (s *budgetState) pollNow(readDone bool) {
	if s == nil {
		return
	}
	r := s.root()
	if r.draining.Load() {
		return
	}
	if r.stopped.Load() {
		r.fail("", nil)
	}
	if r.done == nil || !readDone {
		return
	}
	select {
	case <-r.done:
		err := r.ctxErr()
		res := ResourceCanceled
		if errors.Is(err, context.DeadlineExceeded) {
			res = ResourceDeadline
		}
		r.fail(res, err)
	default:
	}
}

// node counts one search-node expansion, then polls.
func (s *budgetState) node() {
	if s != nil {
		s.count(&s.nodes, &s.root().nodes, s.root().maxNodes, ResourceNodes, 1)
	}
}

// step counts one δ-grid confidence step, then polls.
func (s *budgetState) step() {
	if s != nil {
		s.count(&s.steps, &s.root().steps, s.root().maxSteps, ResourceSteps, 1)
	}
}

// pivot counts n Shannon pivot-assignment evaluations, then polls. It
// is installed as the lineage Machine pivot hook, so it fires from deep
// inside formula evaluation — the unwind crosses the evaluator, whose
// state is then inconsistent and must be discarded (solver boundaries
// only ever return snapshots, never live evaluator state).
func (s *budgetState) pivot(n int) {
	if s != nil {
		s.count(&s.pivots, &s.root().pivots, s.root().maxPivots, ResourcePivots, int64(n))
	}
}

// count adds n to a work counter — own on a worker child, for per-worker
// span attribution, and total on the root, whose limit max it enforces —
// then polls. Both adds happen before any unwind, so the root total
// always equals the sum of its children, including the increment that
// trips the limit.
func (s *budgetState) count(own, total *atomic.Int64, max int64, resource string, n int64) {
	r := s.root()
	if r.draining.Load() {
		return
	}
	if s != r {
		own.Add(n)
	}
	if c := total.Add(n); max > 0 && c > max {
		r.fail(resource, nil)
	}
	s.poll()
}

// fail records the first exhaustion cause on the root and unwinds the
// calling goroutine with a budgetStop panic (each goroutine must unwind
// its own stack, so a worker that trips the shared limit panics locally
// and its siblings follow at their next checkpoint).
func (s *budgetState) fail(resource string, err error) {
	r := s.root()
	r.mu.Lock()
	if r.cause == nil {
		if resource == "" {
			resource = ResourceCanceled
		}
		r.cause = &BudgetExceededError{
			Solver: r.solver, Resource: resource, Err: err,
			Nodes: r.nodes.Load(), Pivots: r.pivots.Load(), Steps: r.steps.Load(),
		}
	}
	cause := r.cause
	r.mu.Unlock()
	r.stopped.Store(true)
	panic(budgetStop{cause})
}

// exceeded returns the recorded exhaustion cause, nil while running.
func (s *budgetState) exceeded() *BudgetExceededError {
	if s == nil {
		return nil
	}
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cause
}

// drain puts the state into best-effort mode: checkpoints stop
// unwinding, so a driver that already hit the budget can still combine
// the finished pieces into an incumbent (bounded leftover work only).
// Draining the state of any worker drains the whole solve.
func (s *budgetState) drain() {
	if s != nil {
		s.root().draining.Store(true)
	}
}

// solveRun is what runSolve hands a solver's search function.
type solveRun struct {
	// e is the instance's evaluator at its initial confidences, past the
	// feasibility probe; e.bs is the solve's budget state (nil when
	// nothing can interrupt the solve).
	e *evaluator
	// span is the "solve:<solver>" span, a child of the span the caller
	// put on ctx (the engine's "strategy" phase span); nil — and every
	// method a no-op — when the context carries none.
	span *obs.Span
	// incumbent is the search's latest feasible plan, set as plans form:
	// what a budget unwind returns, tagged Partial; without one, the
	// unwind returns snap's, the greedy phases' latest snapshot.
	incumbent *Plan
	snap      snapshot
}

// runSolve is the one boundary every built-in solver runs behind. It
// opens the solve span, validates the budget, arms the budget state,
// validates the instance and builds its evaluator (the solve's one
// compile of the result formulas), refuses an instance that is
// infeasible even with every tuple at its maximum, and then runs
// search — recovering whatever unwinds out of any of it into the
// anytime contract (see solveRecover) and closing the span over the
// outcome.
func runSolve(ctx context.Context, solver string, in *Instance, b Budget, search func(*solveRun) (*Plan, error)) (plan *Plan, err error) {
	run := &solveRun{span: obs.SpanFromContext(ctx).StartChild("solve:" + solver)}
	var bs *budgetState
	// Registered before the recovery below so it runs after it (defers
	// are LIFO) and records the plan/err the recovery produced.
	defer func() { finishSolveSpan(run.span, bs, plan, err) }()
	if err := b.Validate(); err != nil {
		return nil, err
	}
	bs, cancel := newBudgetState(solver, ctx, b)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			plan, err = solveRecover(r, solver, in, cmp.Or(run.incumbent, run.snap.plan(in)))
		}
	}()
	if run.e, err = newEvaluator(in, bs); err != nil {
		return nil, err
	}
	if run.e.satAtMax() < in.Need {
		return nil, ErrInfeasible
	}
	return search(run)
}

// finishSolveSpan closes a solve span with the work counters from the
// budget state (falling back to Plan.Nodes on unbudgeted solves), a
// partial marker, and the degradation cause as the span status.
func finishSolveSpan(span *obs.Span, bs *budgetState, plan *Plan, err error) {
	if span == nil {
		return
	}
	if bs != nil {
		setWork(span, bs.nodes.Load(), bs.pivots.Load(), bs.steps.Load())
	} else if plan != nil {
		span.SetAttr("nodes", int64(plan.Nodes))
	}
	if plan != nil && plan.Partial {
		span.SetAttr("partial", 1)
	}
	if err != nil {
		span.SetStatus(err.Error())
	}
	span.End()
}

// setWork records work counters on a span: the whole solve's on the
// solve span, and under a parallel solve each worker's and the driver's
// share on theirs, so the solve span's counters decompose exactly into
// the sum of its children's.
func setWork(span *obs.Span, nodes, pivots, steps int64) {
	span.SetAttr("nodes", nodes)
	span.SetAttr("pivots", pivots)
	span.SetAttr("steps", steps)
}

// solveRecover converts a recovered panic at a boundary — runSolve's,
// or a divide-and-conquer group's — into the anytime contract: budget
// unwinds yield (incumbent tagged Partial, *BudgetExceededError);
// anything else yields (nil, *SolverPanicError).
func solveRecover(r any, solver string, in *Instance, incumbent *Plan) (*Plan, error) {
	if stop, ok := r.(budgetStop); ok {
		if incumbent != nil {
			incumbent.Partial = true
			return incumbent, stop.cause
		}
		return nil, stop.cause
	}
	return nil, &SolverPanicError{
		Solver:      solver,
		Fingerprint: in.Fingerprint(),
		Value:       r,
		Stack:       debug.Stack(),
	}
}
