// Package core implements the PCQE framework of the paper's Figure 1:
// it wires the query evaluator (internal/sql + internal/relation), the
// confidence-policy evaluator (internal/policy) and the strategy-finding
// component (internal/strategy) into the end-to-end flow —
//
//  1. a user submits ⟨Q, purpose, θ⟩;
//  2. the query runs and every intermediate result gets a confidence via
//     lineage propagation;
//  3. the applicable confidence policy filters the results: only rows
//     with confidence above the effective threshold β are released;
//  4. when fewer than θ·n rows survive, the strategy finder computes a
//     minimum-cost confidence-increment plan over the withheld rows'
//     base tuples and reports it as a proposal with its cost;
//  5. if the user accepts, the data-quality improvement step applies the
//     plan to the database and the query is re-evaluated.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strings"

	"pcqe/internal/conf"
	"pcqe/internal/fault"
	"pcqe/internal/obs"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
	"pcqe/internal/strategy"
)

// Engine is a PCQE instance over one database and one policy store.
type Engine struct {
	catalog  *relation.Catalog
	policies *policy.Store
	solver   strategy.Solver
	audit    *AuditLog
	// metrics and tracer are the optional observability surfaces
	// (internal/obs); both are nil-safe, so evaluation code threads them
	// unconditionally.
	metrics *obs.Metrics
	tracer  obs.Tracer
	// plans caches compiled operator trees keyed on normalized query
	// fingerprints; confs caches result-formula confidences keyed on
	// (lineage fingerprint, confidence epoch). Both invalidate through
	// the catalog's version/epoch counters.
	plans *sql.PlanCache
	confs *relation.ConfidenceCache
}

// NewEngine builds an engine. A nil solver defaults to the
// divide-and-conquer algorithm (the paper's most scalable choice).
func NewEngine(catalog *relation.Catalog, policies *policy.Store, solver strategy.Solver) *Engine {
	if solver == nil {
		solver = strategy.NewDivideAndConquer()
	}
	return &Engine{
		catalog: catalog, policies: policies, solver: solver,
		plans: sql.NewPlanCache(0),
		confs: relation.NewConfidenceCache(catalog, 0),
	}
}

// ConfCacheStats exposes the engine's confidence-cache counters.
func (e *Engine) ConfCacheStats() relation.ConfCacheStats { return e.confs.Stats() }

// Catalog exposes the engine's database catalog.
func (e *Engine) Catalog() *relation.Catalog { return e.catalog }

// Policies exposes the engine's policy store.
func (e *Engine) Policies() *policy.Store { return e.policies }

// Request is the user input ⟨Q, pu, perc⟩ from Section 3.2.
type Request struct {
	// User issues the query; policies apply via the user's roles.
	User string
	// Query is the SQL text.
	Query string
	// Purpose states why the data is accessed.
	Purpose string
	// MinFraction is θ: the fraction of intermediate results the user
	// needs released. 0 disables improvement proposals.
	MinFraction float64
	// Budget is the request's allowance (strategy.Budget semantics; the
	// zero value is unlimited). Timeout bounds the whole evaluation's
	// wall clock, most importantly the NP-hard improvement planning step,
	// and combines with any deadline already on the context passed to
	// EvaluateContext (the earlier wins); MaxNodes, MaxPivots and MaxSteps
	// bound the improvement solve's work counters; Workers is its
	// worker-pool width (the plan is bit-identical for every value). When
	// any of them runs out, planning degrades to the solver's best
	// incumbent (a partial proposal) or is dropped, and the query results
	// are still returned. The budget is request-scoped so a server hosting
	// many sessions over one engine can give each session its own
	// allowance. A negative field is rejected.
	Budget strategy.Budget
}

// Row is one query result with its computed confidence.
type Row struct {
	Tuple      *relation.Tuple
	Confidence float64
}

// Response is the outcome of policy-compliant query evaluation.
type Response struct {
	// Schema describes the result columns.
	Schema *relation.Schema
	// Released holds the rows whose confidence clears the threshold,
	// in descending confidence order. Only Release builds one.
	Released Released
	// Withheld holds the rows the policy filtered out (confidence at or
	// below the threshold, or NaN), in descending confidence order. β
	// keeps low-confidence data out of decisions; a withheld row's
	// existence is not a secret (DESIGN.md §12 lists what a session
	// learns about it), so Withheld is a plain slice.
	Withheld []Row
	// Threshold is the effective β; PolicyApplied reports whether any
	// policy matched (when false, every row is released and Threshold
	// is 0).
	Threshold     float64
	PolicyApplied bool
	// Proposal is non-nil when fewer than θ·n rows were released and an
	// improvement plan exists.
	Proposal *Proposal
	// Degraded is non-nil when improvement planning was cut short by the
	// request deadline, a solver budget, or a recovered solver fault
	// (typically a *strategy.BudgetExceededError or
	// *strategy.SolverPanicError). The response is still valid; Proposal
	// — when also present — is a best-effort partial plan.
	Degraded error
	// Timings is the request's phase span tree: eval (query execution),
	// lineage (confidence computation), policy-filter (threshold
	// partition + ordering) and strategy (improvement planning, with
	// per-solver and per-D&C-group child spans carrying node/step/pivot
	// counters). Always populated by EvaluateContext; when a tracer is
	// attached to the engine the same tree is also retained there.
	Timings *obs.Span
	// Version is the committed catalog version the whole evaluation read:
	// query execution, confidence computation and policy filtering all
	// resolved against this one snapshot, so every released row is
	// attributable to exactly this version.
	Version int64
}

// Released is the set of rows the β filter let through. Its only
// constructor is Release, so every Released, whoever built it, holds
// only rows that cleared the β it was built with.
type Released struct{ rows []Row }

// Len returns the number of released rows.
func (r Released) Len() int { return len(r.rows) }

// At returns the i-th released row (descending confidence order).
func (r Released) At(i int) Row { return r.rows[i] }

// Release is the policy filter: with a policy applied, a row is released
// only if its confidence is strictly above beta, and withheld otherwise
// (NaN included); with none applied, every row is released. Both sides
// come back in sortRows order.
func Release(rows []Row, beta float64, applied bool) (Released, []Row) {
	var released, withheld []Row
	for _, row := range rows {
		// Definition 1: access requires confidence strictly above β.
		if !applied || row.Confidence > beta {
			released = append(released, row)
		} else {
			withheld = append(withheld, row)
		}
	}
	sortRows(released)
	sortRows(withheld)
	return Released{rows: released}, withheld
}

// Need returns how many additional rows must clear the policy to honor
// the request's θ.
func (r *Response) Need(req Request) int {
	total := r.Released.Len() + len(r.Withheld)
	// ⌈θ·n⌉, with a product within rounding of an integer counted as
	// that integer: 0.55·100 evaluates to 55.00000000000001, and a plain
	// Ceil would plan and price a 56th row.
	x := req.MinFraction * float64(total)
	want := int(math.Ceil(x - x*conf.Eps))
	need := want - r.Released.Len()
	if need < 0 {
		return 0
	}
	if need > len(r.Withheld) {
		return len(r.Withheld)
	}
	return need
}

// Evaluate runs the full PCQE flow for one request (steps 1–4 of
// Figure 1; Apply is step 5).
func (e *Engine) Evaluate(req Request) (*Response, error) {
	return e.EvaluateContext(context.Background(), req)
}

// EvaluateContext is Evaluate under a context: cancellation or deadline
// expiry (from ctx or req.Budget.Timeout) bounds the whole flow. Query
// evaluation that cannot start returns the context error; improvement
// planning instead degrades gracefully — the solver's best incumbent
// becomes a partial Proposal (or none), Response.Degraded records why,
// and the released rows are returned either way.
func (e *Engine) EvaluateContext(ctx context.Context, req Request) (*Response, error) {
	// One snapshot covers the whole flow: query evaluation, confidence
	// computation and the improvement instance all read the same
	// committed version, whatever writers commit meanwhile.
	snap := e.catalog.Snapshot()
	defer snap.Release()
	return e.evaluateAt(ctx, snap, req)
}

// evaluateAt runs Figure 1's steps 1–4 for one request at the pinned
// snapshot. It is the engine's one way into the pipeline:
// EvaluateContext pins a snapshot for one call, EvaluateMultiContext
// pins one for every query of its batch (with θ zeroed, leaving step 4
// to its shared solve).
func (e *Engine) evaluateAt(ctx context.Context, snap *relation.Snapshot, req Request) (*Response, error) {
	if math.IsNaN(req.MinFraction) || req.MinFraction < 0 || req.MinFraction > 1 {
		return nil, fmt.Errorf("core: min fraction θ=%g outside [0,1]", req.MinFraction)
	}
	// A bad budget fails the request up front, whether or not this
	// evaluation gets as far as a solve.
	if err := req.Budget.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if req.Budget.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Budget.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.metrics.Gauge("engine.inflight").Add(1)
	defer e.metrics.Gauge("engine.inflight").Add(-1)
	root := e.startSpan("request")
	root.SetAttr("snapshot_version", snap.Version())
	fail := func(phase *obs.Span, err error) (*Response, error) {
		phase.SetStatus(err.Error())
		phase.End()
		root.End()
		return nil, err
	}

	// Each phase runs under a layer=… profiler label (restored on return),
	// so a CPU profile of a serving run splits by layer without reading
	// stacks; the solver adds phase=… below layer=strategy.
	defer pprof.SetGoroutineLabels(ctx)
	evalSpan := root.StartChild("eval")
	enterLayer(ctx, "eval")
	res, err := e.plans.QuerySnap(snap, req.Query)
	evalSpan.SetAttr("rows", int64(len(res.Rows)))
	// Per-call attribution, not a counter delta: the cache counters are
	// shared by every concurrent session, so a before/after difference
	// here would charge this request with other sessions' lookups.
	evalSpan.SetAttr("plan_cache_hits", boolAttr(res.Hit))
	evalSpan.SetAttr("plan_cache_misses", boolAttr(!res.Hit))
	if res.Info != nil {
		evalSpan.SetAttr("lineage_hint_read_once", boolAttr(res.Info.LineageHint == "read-once"))
	}
	if err != nil {
		return fail(evalSpan, err)
	}
	evalSpan.End()
	resp := &Response{Schema: res.Schema, Timings: root, Version: snap.Version()}

	// Confidence computation is its own measured phase: lineage
	// probability is #P-hard in general and routinely dominates query
	// evaluation, so conflating the two would hide the dominant cost.
	// Each result formula routes by its complexity class (read-once /
	// bounded-pivot / hard): a read-once row is computed directly, a
	// shared one goes through the confidence cache. The span carries the
	// per-class row and Shannon-pivot totals, and the cache counters
	// count shared rows only.
	linSpan := root.StartChild("lineage")
	enterLayer(ctx, "lineage")
	var cc relation.ConfCacheStats
	all := make([]Row, len(res.Rows))
	for i, t := range res.Rows {
		// A disconnected or deadline-expired client must not ride the
		// lineage phase to completion: confidence computation is #P-hard
		// and routinely dominates the request, and nothing below this
		// loop polls the context until the strategy phase. Poll between
		// rows (one formula is the natural cancellation grain) and bail
		// with the context error — there are no partial results worth
		// salvaging before the policy filter has run.
		if i&0x3f == 0 {
			fault.Probe("core.lineage.row")
			if err := ctx.Err(); err != nil {
				return fail(linSpan, err)
			}
		}
		p, err := e.confs.ConfidenceAtAcc(t, snap, &cc)
		if err != nil {
			// Beyond exact evaluation (wraps lineage.ErrTooManyShared): with
			// no confidence the row can be neither released nor withheld.
			return fail(linSpan, fmt.Errorf("core: confidence of result row %d: %w", i, err))
		}
		all[i] = Row{Tuple: t, Confidence: p}
	}
	linSpan.SetAttr("rows", int64(len(all)))
	linSpan.SetAttr("readonce_rows", cc.Rows[relation.LineageReadOnce])
	linSpan.SetAttr("bounded_rows", cc.Rows[relation.LineageBounded])
	linSpan.SetAttr("hard_rows", cc.Rows[relation.LineageHard])
	linSpan.SetAttr("bounded_pivots", cc.Pivots[relation.LineageBounded])
	linSpan.SetAttr("hard_pivots", cc.Pivots[relation.LineageHard])
	linSpan.SetAttr("conf_cache_hits", cc.Hits)
	linSpan.SetAttr("conf_cache_misses", cc.Misses)
	linSpan.End()
	e.metrics.Counter("engine.confcache.hits").Add(cc.Hits)
	e.metrics.Counter("engine.confcache.misses").Add(cc.Misses)
	e.metrics.Counter("engine.lineage.pivots").Add(cc.Pivots[relation.LineageBounded] + cc.Pivots[relation.LineageHard])

	polSpan := root.StartChild("policy-filter")
	enterLayer(ctx, "policy")
	beta, applied := e.policies.Threshold(req.User, req.Purpose)
	resp.Threshold = beta
	resp.PolicyApplied = applied
	resp.Released, resp.Withheld = Release(all, beta, applied)
	polSpan.SetAttr("released", int64(resp.Released.Len()))
	polSpan.SetAttr("withheld", int64(len(resp.Withheld)))
	polSpan.End()

	// Need is 0 when no policy applied (nothing is withheld) or θ is 0.
	var prop *Proposal
	var cause error
	if need := resp.Need(req); need > 0 {
		stratSpan := root.StartChild("strategy")
		stratSpan.SetAttr("need", int64(need))
		prop, err = e.propose(obs.ContextWithSpan(enterLayer(ctx, "strategy"), stratSpan), resp, need, req.Budget, snap)
		switch {
		case err == nil || errors.Is(err, strategy.ErrInfeasible):
			// prop is nil on infeasibility: nothing to offer.
		case isDegradation(err):
			// Deadline/budget exhaustion or a recovered solver fault:
			// the query results stand, planning degrades. prop (when
			// non-nil) is the solver's partial incumbent.
			cause = err
			stratSpan.SetStatus(err.Error())
		default:
			return fail(stratSpan, err)
		}
		stratSpan.End()
	}

	e.recordAudit(AuditEvent{
		Kind: AuditEvaluate, User: req.User, Purpose: req.Purpose,
		Query: req.Query, Beta: resp.Threshold,
		Released: resp.Released.Len(), Withheld: len(resp.Withheld),
		ReadVersion: snap.Version(),
	})
	e.settle(req, resp.Threshold, prop, cause, resp)
	root.End()
	e.metrics.Counter("engine.queries").Inc()
	e.metrics.Counter("engine.rows.released").Add(int64(resp.Released.Len()))
	e.metrics.Counter("engine.rows.withheld").Add(int64(len(resp.Withheld)))
	e.metrics.Histogram("engine.request.seconds", obs.LatencyBuckets).Observe(root.Duration().Seconds())
	e.metrics.Histogram("engine.result.rows", obs.SizeBuckets).Observe(float64(resp.Released.Len() + len(resp.Withheld)))
	return resp, nil
}

// enterLayer labels the calling goroutine's profiler samples with the
// request phase it is entering and returns the labelled context (for
// callees that add labels of their own).
func enterLayer(ctx context.Context, layer string) context.Context {
	ctx = pprof.WithLabels(ctx, pprof.Labels("layer", layer))
	pprof.SetGoroutineLabels(ctx)
	return ctx
}

// boolAttr renders a flag as a 0/1 span attribute.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// settle lands one solve's outcome, single-query or shared, and is the
// only writer of Response.Proposal and Response.Degraded: it attaches
// prop to every served response, marks and counts each degraded by
// cause, and journals under req's identity a degrade event (planning
// cut short, or group sub-solves failed) and a propose event.
func (e *Engine) settle(req Request, beta float64, prop *Proposal, cause error, resps ...*Response) {
	for _, r := range resps {
		r.Proposal, r.Degraded = prop, cause
		if cause != nil {
			e.metrics.Counter("engine.degraded").Inc()
		}
	}
	ev := AuditEvent{User: req.User, Purpose: req.Purpose, Query: req.Query, Beta: beta}
	if cause != nil {
		ev.Kind, ev.Partial, ev.Detail = AuditDegrade, prop != nil, cause.Error()
		e.recordAudit(ev)
	} else if prop != nil && prop.DegradedGroups() > 0 {
		// Group-level degradation: no solve error, which would otherwise
		// leave no audit trail of the skipped groups.
		ev.Kind, ev.Partial = AuditDegrade, true
		ev.Detail = fmt.Sprintf("%d divide-and-conquer group sub-solve(s) degraded", prop.DegradedGroups())
		e.recordAudit(ev)
	}
	if prop == nil {
		return
	}
	prop.user, prop.purpose = req.User, req.Purpose
	ev.Kind, ev.Partial, ev.Detail = AuditPropose, prop.Partial(), ""
	ev.Cost, ev.Increments = prop.Cost(), prop.Increments()
	e.recordAudit(ev)
	e.metrics.Counter("engine.proposals").Inc()
	if prop.Partial() {
		e.metrics.Counter("engine.proposals.partial").Inc()
	}
	e.metrics.Histogram("engine.proposal.cost", obs.CostBuckets).Observe(prop.Cost())
}

// startSpan opens a root span for one request: through the attached
// tracer when present (so the span is retained in its ring), otherwise
// standalone — Response.Timings is populated either way.
func (e *Engine) startSpan(name string) *obs.Span {
	if e.tracer != nil {
		return e.tracer.StartSpan(name)
	}
	return obs.NewSpan(name)
}

// isDegradation reports whether a solver error should degrade the
// response (partial or missing proposal) instead of failing the whole
// request: budget/deadline exhaustion and recovered solver panics
// qualify, structural errors (bad instance, unknown variables) do not.
func isDegradation(err error) bool {
	var bx *strategy.BudgetExceededError
	var px *strategy.SolverPanicError
	return errors.As(err, &bx) || errors.As(err, &px) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// sortRows orders rows by descending confidence, NaN last, with a
// tuple-key tie-break: equal-confidence rows would otherwise keep
// whatever order the upstream operators produced, making Response
// output nondeterministic across evaluations (hash joins and map-based
// duplicate elimination do not promise an order). Rows equal in both
// keep their input order: the last key is the row's position, so one
// O(n log n) sort gives the stable sort's order. The tuple key is
// rendered only on a confidence tie.
func sortRows(rows []Row) {
	type at struct {
		Row
		i int
	}
	byPos := make([]at, len(rows))
	for i, r := range rows {
		byPos[i] = at{r, i}
	}
	slices.SortFunc(byPos, func(a, b at) int {
		if c := cmp.Compare(b.Confidence, a.Confidence); c != 0 {
			return c
		}
		return cmp.Or(strings.Compare(a.Tuple.Key(), b.Tuple.Key()), cmp.Compare(a.i, b.i))
	})
	for i, r := range byPos {
		rows[i] = r.Row
	}
}

// String renders a short human-readable summary, including the
// degradation status: a partial plan advertised as a full-price
// proposal would misrepresent what the user is buying.
func (r *Response) String() string {
	s := fmt.Sprintf("released %d rows, withheld %d (threshold %.3g)",
		r.Released.Len(), len(r.Withheld), r.Threshold)
	if r.Degraded != nil {
		s += fmt.Sprintf("; degraded (%v)", r.Degraded)
	}
	if r.Proposal != nil {
		kind := "improvement"
		if r.Proposal.Partial() {
			kind = "partial improvement"
		}
		s += fmt.Sprintf("; %s available at cost %.4g", kind, r.Proposal.Cost())
	}
	return s
}
