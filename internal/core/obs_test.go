package core

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/strategy"
)

// spanLog is a Tracer that keeps every root span the engine starts.
type spanLog struct {
	mu    sync.Mutex
	spans []*obs.Span
}

func (l *spanLog) StartSpan(name string) *obs.Span {
	s := obs.NewSpan(name)
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s
}

// TestObservabilityEndToEnd runs the paper's running example with a
// metrics registry, a tracer and an audit journal attached, and checks
// the three surfaces agree: the span tree covers every phase, the
// per-kind audit counters match the journal, and the apply-cost
// histogram mirrors the improvement spend.
func TestObservabilityEndToEnd(t *testing.T) {
	e := newVentureEngine(t, nil)
	log := &AuditLog{}
	e.SetAudit(log)
	m := obs.New()
	e.SetMetrics(m)
	tr := &spanLog{}
	e.SetTracer(tr)

	start := time.Now()
	resp, err := e.Evaluate(blockedReq)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal == nil {
		t.Fatal("running example must yield a proposal")
	}

	root := resp.Timings
	if root == nil || !root.Ended() {
		t.Fatalf("Timings must be a completed span tree, got %v", root)
	}
	for _, phase := range []string{"eval", "lineage", "policy-filter", "strategy"} {
		if root.Find(phase) == nil {
			t.Errorf("span tree missing phase %q:\n%s", phase, root.Tree())
		}
	}
	// The solver boundary hangs its span (with work counters) off the
	// strategy phase via the context.
	solve := root.Find("solve:" + e.solver.Name())
	if solve == nil {
		t.Fatalf("span tree missing the solver span:\n%s", root.Tree())
	}
	if root.Find("strategy").Find("solve:"+e.solver.Name()) == nil {
		t.Errorf("solver span must nest under the strategy phase:\n%s", root.Tree())
	}
	if root.Find("partition") == nil || root.Find("group") == nil {
		t.Errorf("divide-and-conquer must report partition and group spans:\n%s", root.Tree())
	}
	// Phase durations are disjoint sub-intervals of the request: their
	// sum cannot exceed the root, and the root cannot exceed the
	// measured wall time around the call.
	var sum time.Duration
	for _, c := range root.Children() {
		if !c.Ended() {
			t.Errorf("phase %q left in flight", c.Name())
		}
		sum += c.Duration()
	}
	if sum == 0 || sum > root.Duration() {
		t.Errorf("phase durations sum to %v, root is %v", sum, root.Duration())
	}
	if root.Duration() > wall {
		t.Errorf("root span %v exceeds measured wall time %v", root.Duration(), wall)
	}
	// The tracer was handed the same tree.
	if len(tr.spans) != 1 || tr.spans[0] != root {
		t.Errorf("tracer started %d root spans, want the response's one", len(tr.spans))
	}

	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	if got := snap.Counters["engine.queries"]; got != 1 {
		t.Errorf("engine.queries = %d, want 1", got)
	}
	if got := snap.Counters["engine.rows.released"]; got != int64(resp.Released.Len()) {
		t.Errorf("engine.rows.released = %d, want %d", got, resp.Released.Len())
	}
	if got := snap.Counters["engine.rows.withheld"]; got != int64(len(resp.Withheld)) {
		t.Errorf("engine.rows.withheld = %d, want %d", got, len(resp.Withheld))
	}
	if got := snap.Counters["engine.proposals"]; got != 1 {
		t.Errorf("engine.proposals = %d, want 1", got)
	}
	if got := snap.Counters["engine.applied"]; got != 1 {
		t.Errorf("engine.applied = %d, want 1", got)
	}
	if h := snap.Histograms["engine.request.seconds"]; h.Count != 1 {
		t.Errorf("engine.request.seconds count = %d, want 1", h.Count)
	}
	// Audit counters mirror the journal event for event.
	for _, kind := range []AuditEventKind{AuditEvaluate, AuditPropose, AuditApply, AuditDegrade} {
		want := int64(len(log.ByKind(kind)))
		if got := snap.Counters["engine.audit."+kind.String()]; got != want {
			t.Errorf("engine.audit.%s = %d, journal has %d", kind, got, want)
		}
	}
	// The apply-cost histogram's running sum is the improvement bill.
	if h := snap.Histograms["engine.apply.cost"]; math.Abs(h.Sum-log.TotalImprovementSpend()) > 1e-9 {
		t.Errorf("engine.apply.cost sum = %g, spend = %g", h.Sum, log.TotalImprovementSpend())
	}
}

// TestTimingsWithoutTracer pins the zero-configuration contract:
// Response.Timings is populated even when no tracer (and no metrics
// registry) is attached.
func TestTimingsWithoutTracer(t *testing.T) {
	e := newVentureEngine(t, nil)
	resp, err := e.Evaluate(Request{User: "sue", Query: ventureQuery, Purpose: "analysis"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Timings == nil || resp.Timings.Find("eval") == nil {
		t.Fatalf("Timings must be populated without a tracer, got %v", resp.Timings)
	}
	if resp.Timings.Find("strategy") != nil {
		t.Error("no improvement planning was requested; no strategy span expected")
	}
}

// TestDegradeMetrics scripts a budget-exhausted solver and checks the
// degradation is visible on all three surfaces: Response.Degraded, the
// audit journal, and the metrics counters.
func TestDegradeMetrics(t *testing.T) {
	budgetErr := &strategy.BudgetExceededError{Solver: "stub", Resource: strategy.ResourceDeadline}
	e := newVentureEngine(t, &stubSolver{
		solve: func(context.Context, *strategy.Instance) (*strategy.Plan, error) {
			return nil, budgetErr
		},
	})
	log := &AuditLog{}
	e.SetAudit(log)
	m := obs.New()
	e.SetMetrics(m)

	resp, err := e.Evaluate(blockedReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded == nil {
		t.Fatal("stubbed budget error must degrade the response")
	}
	snap := m.Snapshot()
	if got := snap.Counters["engine.degraded"]; got != 1 {
		t.Errorf("engine.degraded = %d, want 1", got)
	}
	if got, want := snap.Counters["engine.audit.degrade"], int64(len(log.ByKind(AuditDegrade))); got != want {
		t.Errorf("engine.audit.degrade = %d, journal has %d", got, want)
	}
	if got := snap.Counters["engine.proposals"]; got != 0 {
		t.Errorf("engine.proposals = %d, want 0 (no incumbent)", got)
	}
	if status := resp.Timings.Find("strategy").Status(); status == "" {
		t.Errorf("strategy span must carry the degradation cause:\n%s", resp.Timings.Tree())
	}
}

// TestAuditLogConcurrency hammers the journal from parallel goroutines
// (run under -race) and pins that Seq stays a gap-free 1..N sequence.
func TestAuditLogConcurrency(t *testing.T) {
	log := &AuditLog{}
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				kind := AuditEventKind(i % 4)
				log.record(AuditEvent{Kind: kind, User: "u", Cost: 1.5})
				_ = log.Events()
				_ = log.ByKind(kind)
				_ = log.TotalImprovementSpend()
				_ = log.Len()
				_ = log.ImprovedTuples()
			}
		}(w)
	}
	wg.Wait()

	events := log.Events()
	if len(events) != writers*perWriter {
		t.Fatalf("recorded %d events, want %d", len(events), writers*perWriter)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d carries Seq %d: sequence must be gap-free and monotone", i, ev.Seq)
		}
	}
	applies := len(log.ByKind(AuditApply))
	if want := float64(applies) * 1.5; math.Abs(log.TotalImprovementSpend()-want) > 1e-9 {
		t.Fatalf("spend = %g, want %g", log.TotalImprovementSpend(), want)
	}
}

// TestSortRowsDeterministic pins the tuple-key tie-break: rows with
// equal confidence must come out in the same order regardless of the
// (operator-dependent) order they went in.
func TestSortRowsDeterministic(t *testing.T) {
	mk := func(name string, p float64) Row {
		return Row{Tuple: relation.NewTuple([]relation.Value{relation.String_(name)}, nil), Confidence: p}
	}
	a, b, c, d := mk("alpha", 0.5), mk("bravo", 0.5), mk("charlie", 0.5), mk("delta", 0.9)
	forward := []Row{d, a, b, c}
	backward := []Row{c, b, a, d}
	sortRows(forward)
	sortRows(backward)
	for i := range forward {
		if forward[i].Tuple.Key() != backward[i].Tuple.Key() {
			t.Fatalf("order differs at %d: %v vs %v", i, forward[i].Tuple, backward[i].Tuple)
		}
	}
	if forward[0].Confidence != 0.9 {
		t.Fatal("descending confidence must still dominate the tie-break")
	}
}

// TestSortRowsMatchesStableSort pins sortRows' one O(n log n) sort to
// the stable sort it replaced: over generated rows with many confidence
// ties (NaN, ±0 and repeats among them) and many key ties (distinct
// tuples with equal values), the order is slices.SortStableFunc's, tuple
// for tuple.
func TestSortRowsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	confs := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 0.5000000000000001, 1, math.NaN()}
	for trial := range 300 {
		rows := make([]Row, rng.Intn(200))
		for i := range rows {
			vals := []relation.Value{relation.Int(int64(rng.Intn(4)))}
			if rng.Intn(3) == 0 {
				vals = append(vals, relation.String_(string(rune('a'+rng.Intn(3)))))
			}
			rows[i] = Row{Tuple: relation.NewTuple(vals, nil), Confidence: confs[rng.Intn(len(confs))]}
		}
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b Row) int {
			if c := cmp.Compare(b.Confidence, a.Confidence); c != 0 {
				return c
			}
			return strings.Compare(a.Tuple.Key(), b.Tuple.Key())
		})
		sortRows(rows)
		for i := range rows {
			if rows[i].Tuple != want[i].Tuple {
				t.Fatalf("trial %d: row %d is %v at %v, the stable sort puts %v at %v there",
					trial, i, rows[i].Tuple, rows[i].Confidence, want[i].Tuple, want[i].Confidence)
			}
		}
	}
}

// TestResponseStringDegraded pins that the summary line reports the
// degradation status and distinguishes partial from full proposals.
func TestResponseStringDegraded(t *testing.T) {
	budgetErr := &strategy.BudgetExceededError{Solver: "stub", Resource: strategy.ResourceSteps}
	plan := &strategy.Plan{Partial: true}
	e := newVentureEngine(t, &stubSolver{
		solve: func(_ context.Context, in *strategy.Instance) (*strategy.Plan, error) {
			plan.NewP = make([]float64, len(in.Base))
			for i, b := range in.Base {
				plan.NewP[i] = b.MaxP
			}
			return plan, budgetErr
		},
	})
	resp, err := e.Evaluate(blockedReq)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.String()
	for _, want := range []string{"degraded", "partial improvement"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, want it to mention %q", got, want)
		}
	}
}

// labelProbe is a solver that records the profiler labels on the
// context the engine hands it, then delegates.
type labelProbe struct {
	strategy.Solver
	layer string
}

func (p *labelProbe) SolveContext(ctx context.Context, in *strategy.Instance, b strategy.Budget) (*strategy.Plan, error) {
	p.layer, _ = pprof.Label(ctx, "layer")
	return strategy.SolveContext(ctx, p.Solver, in, b)
}

// TestProfilerLayerLabels pins the pprof labelling of request phases:
// the solver runs under layer=strategy (its own phase=… labels stack on
// that context), and the caller's labels are back when the request ends.
func TestProfilerLayerLabels(t *testing.T) {
	probe := &labelProbe{Solver: strategy.NewDivideAndConquer()}
	e := newVentureEngine(t, probe)
	pprof.Do(context.Background(), pprof.Labels("caller", "test"), func(ctx context.Context) {
		resp, err := e.EvaluateContext(ctx, blockedReq)
		if err != nil || resp.Proposal == nil {
			t.Fatalf("proposal %v, err %v", resp.Proposal, err)
		}
	})
	if probe.layer != "strategy" {
		t.Fatalf("solver saw layer=%q, want strategy", probe.layer)
	}
}
