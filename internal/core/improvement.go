package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"pcqe/internal/conf"
	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/strategy"
)

// Proposal is the strategy finder's answer: which base tuples to
// improve, to what confidence, and at what total cost. The user (or the
// caller acting for them) accepts it with Engine.Apply.
type Proposal struct {
	instance *strategy.Instance
	plan     *strategy.Plan
	solver   string
	// skipped counts withheld rows whose lineage could not enter the
	// optimization (non-monotone lineage from EXCEPT-style queries).
	skipped int
	// user and purpose identify the request that triggered the
	// proposal, for the audit journal.
	user, purpose string
	// readVersion is the committed catalog version the proposal's
	// instance was built from; Apply records it alongside the version
	// its transaction commits, bracketing the plan in the audit journal.
	readVersion int64
	// increments memoises Increments(): the audit event, the wire and
	// Apply all read the same sorted slice.
	incOnce    sync.Once
	increments []Increment
}

// Cost is the total improvement cost of the plan.
func (p *Proposal) Cost() float64 { return p.plan.Cost }

// ReadVersion is the committed catalog version the proposal was built
// from (0 for proposals built before version tracking).
func (p *Proposal) ReadVersion() int64 { return p.readVersion }

// Solver names the algorithm that produced the plan.
func (p *Proposal) Solver() string { return p.solver }

// Skipped reports how many withheld rows were not improvable (their
// lineage contains negation).
func (p *Proposal) Skipped() int { return p.skipped }

// Partial reports whether the plan is a best-effort incumbent returned
// under a deadline or budget rather than a completed solve. Partial
// plans are still internally consistent (they pass Verify when they
// satisfy enough results) but may cost more or satisfy fewer rows than
// a full solve would.
func (p *Proposal) Partial() bool { return p.plan.Partial }

// DegradedGroups reports how many divide-and-conquer group sub-solves
// behind the plan panicked or exhausted their budget and were skipped
// or served by a cheaper fallback (0 for other solvers and clean
// solves). The engine journals an audit event when it is non-zero, so
// silently absorbed group failures stay reviewable.
func (p *Proposal) DegradedGroups() int { return p.plan.Degraded }

// Increment is one suggested confidence raise.
type Increment struct {
	Var  lineage.Var
	From float64
	To   float64
	Cost float64
}

// Increments lists the per-tuple raises in descending cost order. The
// slice is computed once per proposal and shared by every caller: it
// must not be modified.
func (p *Proposal) Increments() []Increment {
	p.incOnce.Do(func() {
		var out []Increment
		for i, b := range p.instance.Base {
			np := p.plan.NewP[i]
			if conf.GT(np, b.P) {
				out = append(out, Increment{
					Var:  b.Var,
					From: b.P,
					To:   np,
					Cost: b.Cost.Increment(b.P, np),
				})
			}
		}
		sortIncrements(out)
		p.increments = out
	})
	return p.increments
}

// sortIncrements orders increments by descending cost, ties by variable.
func sortIncrements(incs []Increment) {
	sort.Slice(incs, func(a, b int) bool {
		if incs[a].Cost != incs[b].Cost {
			return incs[a].Cost > incs[b].Cost
		}
		return incs[a].Var < incs[b].Var
	})
}

// instanceBuilder accumulates withheld rows into one optimization
// instance: one response's rows for a single-query proposal, every
// participating response's in turn for the multi-query extension (the
// search space is the union of their base tuples).
type instanceBuilder struct {
	// snap resolves base tuples at the evaluation's snapshot: the
	// instance's starting confidences must match the ones the withheld
	// rows were filtered under, not whatever a concurrent commit left
	// behind.
	snap *relation.Snapshot
	in   *strategy.Instance
	// baseIdx maps a variable to its index in in.Base.
	baseIdx map[lineage.Var]int
	// skipped counts rows whose lineage could not enter the
	// optimization (non-monotone lineage from EXCEPT-style queries).
	skipped int
}

func newInstanceBuilder(snap *relation.Snapshot) *instanceBuilder {
	// The paper's evaluation grid uses δ=0.1; keep it as the default
	// planning granularity.
	return &instanceBuilder{snap: snap, in: &strategy.Instance{Delta: 0.1}, baseIdx: map[lineage.Var]int{}}
}

// add appends the improvable rows as results (and their not-yet-seen
// base tuples) and returns how many it added.
func (b *instanceBuilder) add(rows []Row) (int, error) {
	added := 0
	for _, row := range rows {
		if !row.Tuple.Lineage.Monotone() {
			b.skipped++
			continue
		}
		// The solver plans over the very formula the policy filter priced:
		// it already passed the shared-variable limit there.
		formula := row.Tuple.Lineage
		for _, v := range formula.Vars() {
			if _, ok := b.baseIdx[v]; ok {
				continue
			}
			base, ok := b.snap.BaseTupleByVar(v)
			if !ok {
				return added, fmt.Errorf("core: lineage references unknown base tuple %d", int(v))
			}
			bt := strategy.BaseTuple{Var: v, P: base.Confidence(), MaxP: base.MaxConf(), Cost: base.Cost()}
			if !base.Improvable() {
				// Not improvable: freeze at the current confidence.
				bt.MaxP = bt.P
				//lint:allow confrange exact zero-value probe: strategy treats
				// MaxP==0 as "unset, default to 1", so a genuinely frozen-at-0
				// tuple must dodge the sentinel with the tiniest nonzero cap.
				if bt.MaxP == 0 {
					bt.MaxP = 1e-12 // MaxP 0 means "default to 1" in strategy
				}
				bt.Cost = cost.Linear{Rate: 0}
			}
			b.baseIdx[v] = len(b.in.Base)
			b.in.Base = append(b.in.Base, bt)
		}
		b.in.Results = append(b.in.Results, strategy.Result{
			ID:      len(b.in.Results),
			Formula: formula,
		})
		added++
	}
	return added, nil
}

// solve runs the engine's solver on the built instance under ctx and
// budget and wraps the plan as a Proposal. When the solver runs out of
// deadline or budget but still produced an anytime incumbent, the plan
// comes back (tagged Partial) alongside the *strategy.BudgetExceededError
// so the caller can degrade instead of fail.
func (e *Engine) solve(ctx context.Context, b *instanceBuilder, budget strategy.Budget) (*Proposal, error) {
	// The width the solve runs at: 0 and 1 are both serial.
	e.metrics.Gauge("engine.solver.workers").Set(int64(max(budget.Workers, 1)))
	plan, err := strategy.SolveContext(ctx, e.solver, b.in, budget)
	if plan == nil {
		return nil, err
	}
	return &Proposal{
		instance: b.in, plan: plan, solver: e.solver.Name(), skipped: b.skipped,
		readVersion: b.snap.Version(),
	}, err
}

// propose builds the optimization instance from the response's withheld
// rows and solves it under the request context and the request's
// budget.
func (e *Engine) propose(ctx context.Context, resp *Response, need int, budget strategy.Budget, snap *relation.Snapshot) (*Proposal, error) {
	b := newInstanceBuilder(snap)
	n, err := b.add(resp.Withheld)
	if err != nil {
		return nil, err
	}
	if need > n {
		need = n
	}
	if need == 0 {
		return nil, strategy.ErrInfeasible
	}
	b.in.Beta, b.in.Need = resp.Threshold+betaMargin, need
	return e.solve(ctx, b, budget)
}

// betaMargin lifts the optimization target infinitesimally above the
// policy threshold: Definition 1 releases rows with confidence strictly
// greater than β while the optimization constraints use ≥, so planning
// exactly to β could satisfy the solver yet still fail the policy.
const betaMargin = 1e-9

// Apply performs the data-quality improvement step: it writes the
// proposal's new confidences into the catalog as ONE transaction —
// every increment commits atomically or none does. A fault (injected
// at the "core.apply.increment" probe or genuine) mid-apply rolls the
// transaction back, journals an AuditRollback event and leaves every
// confidence bit-identical to the pre-transaction state. Re-evaluating
// the request afterwards releases the additional rows. See
// ApplyOutcome for what the journal records.
func (e *Engine) Apply(p *Proposal) error {
	_, err := e.ApplyOutcome(p)
	return err
}

// ApplyOutcome is Apply returning the AuditApply event it journals. The
// event records what the transaction wrote, not what the proposal
// planned: increments merge by maximum, so a tuple whose confidence a
// concurrent apply already raised to (or past) the target is skipped
// rather than lowered, and overlapping plans compose instead of
// fighting. Each written increment runs From the confidence it
// replaced To the target, priced by the tuple's cost function; Cost is
// their sum and CommitVersion the transaction's version, ReadVersion
// the proposal's. An apply that finds nothing left to raise rolls back
// and journals a no-op: no increments, cost 0, no CommitVersion.
func (e *Engine) ApplyOutcome(p *Proposal) (ev AuditEvent, err error) {
	if p == nil {
		return AuditEvent{}, fmt.Errorf("core: nil proposal")
	}
	if err := p.instance.Verify(p.plan); err != nil {
		return AuditEvent{}, fmt.Errorf("core: refusing to apply inconsistent proposal: %w", err)
	}
	x := e.catalog.Begin()
	defer func() {
		if r := recover(); r != nil {
			x.Rollback()
			ev, err = AuditEvent{}, fmt.Errorf("core: apply fault: %v", r)
			e.recordApplyRollback(p, err)
		}
	}()
	ev = AuditEvent{Kind: AuditApply, User: p.user, Purpose: p.purpose, ReadVersion: p.readVersion}
	for i, b := range p.instance.Base {
		np := p.plan.NewP[i]
		if !conf.GT(np, b.P) {
			continue
		}
		fault.Probe("core.apply.increment")
		cur, ok := x.ConfidenceOf(b.Var)
		if ok && conf.GE(cur, np) {
			continue // already at or past the target: max-merge
		}
		if err := x.SetConfidence(b.Var, np); err != nil {
			x.Rollback()
			err = fmt.Errorf("core: applying increment to tuple %d: %w", int(b.Var), err)
			e.recordApplyRollback(p, err)
			return AuditEvent{}, err
		}
		inc := Increment{Var: b.Var, From: cur, To: np, Cost: b.Cost.Increment(cur, np)}
		ev.Increments = append(ev.Increments, inc)
		ev.Cost += inc.Cost
	}
	if len(ev.Increments) == 0 {
		x.Rollback()
		ev.Detail = "no-op: every target already met"
	} else {
		sortIncrements(ev.Increments)
		if ev.CommitVersion, err = x.Commit(); err != nil {
			err = fmt.Errorf("core: committing improvement plan: %w", err)
			e.recordApplyRollback(p, err)
			return AuditEvent{}, err
		}
	}
	e.recordAudit(ev)
	if e.metrics != nil {
		e.metrics.Counter("engine.applied").Inc()
		// The histogram's running sum is the cumulative improvement
		// spend, mirroring AuditLog.TotalImprovementSpend.
		e.metrics.Histogram("engine.apply.cost", obs.CostBuckets).Observe(ev.Cost)
	}
	return ev, nil
}

// recordApplyRollback journals a failed, rolled-back apply.
func (e *Engine) recordApplyRollback(p *Proposal, cause error) {
	e.recordAudit(AuditEvent{
		Kind: AuditRollback, User: p.user, Purpose: p.purpose,
		Cost: p.plan.Cost, ReadVersion: p.readVersion,
		Detail: cause.Error(),
	})
	e.metrics.Counter("engine.apply.rollbacks").Inc()
}

// EvaluateMulti implements the paper's multi-query extension
// (Section 4, last paragraph): several queries issued in a short period
// share one improvement plan. The search space is the union of the
// queries' base tuples; a combined plan must cover every query's need.
// Queries are planned sequentially against the accumulating confidence
// assignment (the divide-and-conquer combination idea), and each
// response's proposal is replaced by a shared one attached to every
// response that needed improvement.
func (e *Engine) EvaluateMulti(reqs []Request) ([]*Response, *Proposal, error) {
	return e.EvaluateMultiContext(context.Background(), reqs)
}

// EvaluateMultiContext is EvaluateMulti under a context: cancellation
// bounds both the per-query evaluations and the shared planning solve.
// A shared solve cut short by the context degrades to no shared plan
// (the individual responses stand alone), mirroring EvaluateContext.
func (e *Engine) EvaluateMultiContext(ctx context.Context, reqs []Request) ([]*Response, *Proposal, error) {
	// One snapshot covers every query and the combined instance: the
	// solver starts from exactly the confidences each response's rows
	// were filtered under, whatever writers commit between the queries.
	snap := e.catalog.Snapshot()
	defer snap.Release()

	// Every query runs the pipeline without improvement planning (θ
	// zeroed); those that need improvement contribute their withheld
	// rows as one block of the combined instance and carry their own
	// need.
	resps := make([]*Response, len(reqs))
	b := newInstanceBuilder(snap)
	var maxBeta float64
	var blocks []queryBlock
	var served []*Response // the responses of blocks, in order
	for i, req := range reqs {
		unplanned := req
		unplanned.MinFraction = 0
		resp, err := e.evaluateAt(ctx, snap, unplanned)
		if err != nil {
			return nil, nil, fmt.Errorf("core: query %d: %w", i, err)
		}
		resps[i] = resp
		need := resp.Need(req)
		if need == 0 {
			continue
		}
		first := len(b.in.Results)
		n, err := b.add(resp.Withheld)
		if err != nil {
			return nil, nil, err
		}
		if need > n {
			need = n
		}
		if need > 0 {
			blocks = append(blocks, queryBlock{req: i, first: first, count: n, need: need})
			served = append(served, resp)
			if resp.Threshold > maxBeta {
				maxBeta = resp.Threshold
			}
		}
	}
	if len(blocks) == 0 {
		return resps, nil, nil
	}
	// The per-query needs become one instance whose Need is the sum;
	// the per-block minimums are enforced by post-checking and, if a
	// block falls short, topping it up with a block-local solve that
	// starts from the combined plan (mirrors the paper's "check whether
	// a solution is found for all queries").
	b.in.Beta = maxBeta + betaMargin
	for _, blk := range blocks {
		b.in.Need += blk.need
	}
	// The shared solve gets its own root span (there is no single
	// response to hang it on); solver and per-group child spans attach
	// through the context, and an attached tracer retains the tree.
	shared := e.startSpan("strategy-shared")
	defer shared.End()
	shared.SetAttr("queries", int64(len(blocks)))
	shared.SetAttr("need", int64(b.in.Need))
	sctx := obs.ContextWithSpan(ctx, shared)
	// The shared solve serves every query at once; give it the most
	// permissive budget across the participating requests.
	budget := combinedBudget(reqs)
	prop, err := e.solve(sctx, b, budget)
	if err != nil && !isDegradation(err) {
		return resps, nil, nil // no feasible shared plan; responses stand alone
	}
	if err != nil {
		// The shared solve was cut short by the deadline, a budget, or a
		// recovered solver fault. That is a reviewable policy decision:
		// settle marks every response that wanted improvement degraded
		// and journals it — whether or not an anytime incumbent survives
		// to become a partial shared proposal.
		shared.SetStatus(err.Error())
	}
	if prop != nil {
		prop.plan = topUpBlocks(sctx, e, b, prop.plan, blocks, budget)
	}
	// The first request wanting improvement is the audit identity.
	e.settle(reqs[blocks[0].req], b.in.Beta, prop, err, served...)
	return resps, prop, nil
}

// combinedBudget merges the participating requests' budgets for a
// shared multi-query solve: the widest worker pool any request asked
// for, and for the wall clock and each work counter the most permissive
// bound — any request with an unlimited one (0) makes the shared one
// unlimited, otherwise the largest allowance wins. The shared solve
// serves every query at once, so the tightest session must not starve
// its peers' planning.
func combinedBudget(reqs []Request) strategy.Budget {
	b := reqs[0].Budget
	for _, req := range reqs[1:] {
		b.Workers = max(b.Workers, req.Budget.Workers)
		b.Timeout = mergeLimit(b.Timeout, req.Budget.Timeout)
		b.MaxNodes = mergeLimit(b.MaxNodes, req.Budget.MaxNodes)
		b.MaxPivots = mergeLimit(b.MaxPivots, req.Budget.MaxPivots)
		b.MaxSteps = mergeLimit(b.MaxSteps, req.Budget.MaxSteps)
	}
	return b
}

// mergeLimit folds one request's bound into the running shared bound:
// 0 means unlimited and absorbs everything.
func mergeLimit[T int | time.Duration](acc, next T) T {
	if acc == 0 || next == 0 {
		return 0
	}
	return max(acc, next)
}

// queryBlock identifies one query's slice of the combined instance's
// results (req indexes the batch's requests) and its individual
// requirement.
type queryBlock struct{ req, first, count, need int }

// topUpBlocks ensures every query block meets its own need under the
// combined plan; blocks that fall short are re-solved locally starting
// from the combined confidences, then merged (max per tuple).
func topUpBlocks(ctx context.Context, e *Engine, b *instanceBuilder, plan *strategy.Plan, blocks []queryBlock, budget strategy.Budget) *strategy.Plan {
	combined := b.in
	newP := append([]float64{}, plan.NewP...)
	// a reads newP live, so every check below sees the merged state.
	a := lineage.FuncAssignment(func(v lineage.Var) float64 { return newP[b.baseIdx[v]] })
	partial := plan.Partial
	for _, blk := range blocks {
		sat := 0
		for ri := blk.first; ri < blk.first+blk.count; ri++ {
			if conf.GE(lineage.Prob(combined.Results[ri].Formula, a), combined.Beta) {
				sat++
			}
		}
		if sat >= blk.need {
			continue
		}
		// Local solve from the combined state.
		sub := &strategy.Instance{Beta: combined.Beta, Delta: combined.Delta, Need: blk.need}
		mapping := []int{}
		seen := map[lineage.Var]bool{}
		for ri := blk.first; ri < blk.first+blk.count; ri++ {
			sub.Results = append(sub.Results, combined.Results[ri])
			for _, v := range combined.Results[ri].Formula.Vars() {
				if seen[v] {
					continue
				}
				seen[v] = true
				bi := b.baseIdx[v]
				nb := combined.Base[bi]
				nb.P = newP[bi]
				sub.Base = append(sub.Base, nb)
				mapping = append(mapping, bi)
			}
		}
		// A block solve cut short may still carry an anytime incumbent:
		// salvage it (the merged plan only improves) and record that the
		// result is partial, instead of discarding it with the error.
		sp, err := strategy.SolveContext(ctx, e.solver, sub, budget)
		if sp != nil {
			if err != nil || sp.Partial {
				partial = true
			}
			for si, bi := range mapping {
				if sp.NewP[si] > newP[bi] {
					newP[bi] = sp.NewP[si]
				}
			}
		}
	}
	total := 0.0
	for i, bt := range combined.Base {
		total += bt.Cost.Increment(bt.P, newP[i])
	}
	out := &strategy.Plan{NewP: newP, Cost: total, Nodes: plan.Nodes, Partial: partial, Degraded: plan.Degraded}
	for ri, r := range combined.Results {
		if conf.GE(lineage.Prob(r.Formula, a), combined.Beta) {
			out.Satisfied = append(out.Satisfied, ri)
		}
	}
	return out
}
