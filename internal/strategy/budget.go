package strategy

// This file implements the resilient solver runtime: wall-clock and
// work budgets, cooperative cancellation, and the anytime contract.
//
// The strategy-finding problem is NP-hard and exact confidence
// computation over lineage is #P-hard, so every solver here can be made
// to run arbitrarily long by an adversarial (or merely large) instance.
// SolveContext bounds a solve with a context and a Budget; the solvers
// poll cheap checkpoints inside their hot loops (DFS node expansions,
// greedy gain picks, δ-step applications, Shannon pivot enumerations in
// compiled lineage programs) and, on exhaustion, unwind to the solver
// boundary via a budgetStop panic. The boundary converts the unwind
// into the anytime contract: the best incumbent plan found so far —
// always a consistent snapshot that passes Instance.Verify — tagged
// Plan.Partial, together with a typed *BudgetExceededError naming the
// resource that ran out. Real panics (bugs, injected faults) are
// likewise recovered at the boundary and converted to a typed
// *SolverPanicError carrying the solver name and an instance
// fingerprint, so one poisoned sub-problem cannot kill a process.

import (
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
	// Workers overrides, for this solve only, the number of worker
	// goroutines a parallel-capable solver (DivideAndConquer) uses for
	// independent group sub-solves: 0 keeps the solver's own
	// configuration, 1 forces serial, n > 1 uses n workers. Group plans
	// merge in deterministic group order, so the resulting plan is
	// bit-identical for every value.
	Workers int
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

// ContextSolver is a Solver with deadline/budget-aware execution. All
// built-in solvers implement it.
type ContextSolver interface {
	Solver
	// SolveContext computes a plan under ctx and b. On budget or
	// deadline exhaustion it returns the best incumbent plan so far
	// (tagged Plan.Partial; nil when none is feasible yet) together with
	// a *BudgetExceededError, so callers check the error before assuming
	// optimality and check the plan before assuming total failure.
	SolveContext(ctx context.Context, in *Instance, b Budget) (*Plan, error)
}

// SolveContext runs s under ctx and b. Solvers that do not implement
// ContextSolver run open-loop via plain Solve (the budget is ignored,
// but a context that is already done short-circuits).
func SolveContext(ctx context.Context, s Solver, in *Instance, b Budget) (*Plan, error) {
	if cs, ok := s.(ContextSolver); ok {
		return cs.SolveContext(ctx, in, b)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return s.Solve(in)
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
// package: every SolveContext boundary recovers it.
type budgetStop struct{ cause *BudgetExceededError }

// budgetState is the shared, concurrency-safe bookkeeping of one solve:
// work counters, the stop flag, and the first exhaustion cause. A nil
// *budgetState is valid and means "unbudgeted": every method is a no-op,
// so the plain Solve path pays nothing.
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
// worker (or for the driver's own share of a parallel solve). Counter
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

// poll is the basic cooperative checkpoint: it unwinds if the solve was
// already stopped or the context is done. All control state lives on the
// root, so a worker child polls its parent's flags — exhaustion anywhere
// stops every goroutine of the solve at its next checkpoint.
func (s *budgetState) poll() {
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
	if r.done != nil {
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
}

// node counts one search-node expansion, then polls. Worker children
// record the increment locally (per-worker span attribution) and on the
// root, whose counter enforces the global limit; both adds happen before
// any unwind, so the root total always equals the sum of its children —
// including the increment that trips the limit.
func (s *budgetState) node() {
	if s == nil {
		return
	}
	r := s.root()
	if r.draining.Load() {
		return
	}
	if s != r {
		s.nodes.Add(1)
	}
	if n := r.nodes.Add(1); r.maxNodes > 0 && n > r.maxNodes {
		r.fail(ResourceNodes, nil)
	}
	s.poll()
}

// step counts one δ-grid confidence step, then polls.
func (s *budgetState) step() {
	if s == nil {
		return
	}
	r := s.root()
	if r.draining.Load() {
		return
	}
	if s != r {
		s.steps.Add(1)
	}
	if n := r.steps.Add(1); r.maxSteps > 0 && n > r.maxSteps {
		r.fail(ResourceSteps, nil)
	}
	s.poll()
}

// pivot counts n Shannon pivot-assignment evaluations, then polls. It
// is installed as the lineage Machine pivot hook, so it fires from deep
// inside formula evaluation — the unwind crosses the evaluator, whose
// state is then inconsistent and must be discarded (solver boundaries
// only ever return snapshots, never live evaluator state).
func (s *budgetState) pivot(n int) {
	if s == nil {
		return
	}
	r := s.root()
	if r.draining.Load() {
		return
	}
	if s != r {
		s.pivots.Add(int64(n))
	}
	if c := r.pivots.Add(int64(n)); r.maxPivots > 0 && c > r.maxPivots {
		r.fail(ResourcePivots, nil)
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

// startSolveSpan opens the per-solve span as a child of the span the
// caller put on ctx (the engine's "strategy" phase span), named
// "solve:<solver>". Returns nil — and every Span method is a no-op —
// when the context carries no span.
func startSolveSpan(ctx context.Context, solver string) *obs.Span {
	return obs.SpanFromContext(ctx).StartChild("solve:" + solver)
}

// finishSolveSpan closes a solve span with the work counters from the
// budget state (falling back to Plan.Nodes on unbudgeted solves), a
// partial marker, and the degradation cause as the span status.
func finishSolveSpan(span *obs.Span, bs *budgetState, plan *Plan, err error) {
	if span == nil {
		return
	}
	if bs != nil {
		span.SetAttr("nodes", bs.nodes.Load())
		span.SetAttr("pivots", bs.pivots.Load())
		span.SetAttr("steps", bs.steps.Load())
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

// finishWorkerSpan closes a per-worker span with the worker's own share
// of the work counters — the child budgetState's local counters, not the
// root totals — so the enclosing solve span's counter attributes
// decompose exactly into the sum of its worker spans'. groups < 0 omits
// the group-count attribute.
func finishWorkerSpan(span *obs.Span, bs *budgetState, groups int) {
	if span == nil {
		return
	}
	if bs != nil {
		span.SetAttr("nodes", bs.nodes.Load())
		span.SetAttr("pivots", bs.pivots.Load())
		span.SetAttr("steps", bs.steps.Load())
	}
	if groups >= 0 {
		span.SetAttr("groups", int64(groups))
	}
	span.End()
}

// solveRecover converts a recovered panic at a solver boundary into the
// anytime contract: budget unwinds yield (incumbent tagged Partial,
// *BudgetExceededError); anything else yields (nil, *SolverPanicError).
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
