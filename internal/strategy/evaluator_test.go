package strategy

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pcqe/internal/conf"
	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
	"pcqe/internal/obs"
)

// singletonGroupsInstance builds n results that share no base tuple —
// the shape of a DISTINCT join's withheld rows: two thirds are (a ∧ b),
// one third ((a ∧ s) ∨ (b ∧ s)) with s shared inside the formula. γ=1
// partitions it into n one-result groups of 2–3 tuples, all below τ.
func singletonGroupsInstance(n int, seed int64) *Instance {
	r := rand.New(rand.NewSource(seed))
	in := &Instance{Beta: 0.5, Delta: 0.1}
	next := 0
	v := func() *lineage.Expr {
		next++
		in.Base = append(in.Base, BaseTuple{
			Var:  lineage.Var(next),
			P:    0.3 + 0.35*r.Float64(),
			Cost: cost.Linear{Rate: 1 + 99*r.Float64()},
		})
		return lineage.NewVar(lineage.Var(next))
	}
	for ri := 0; ri < n; ri++ {
		f := lineage.And(v(), v())
		if ri%3 == 2 {
			s := v()
			f = lineage.Or(lineage.And(v(), s), lineage.And(v(), s))
		}
		in.Results = append(in.Results, Result{ID: ri, Formula: f})
	}
	in.Need = n * 4 / 5
	return in
}

// requireSameEvaluator fails unless got and want hold bit-identical
// state: confidences, result probabilities, satisfaction bookkeeping,
// adjacency, the feasibility count, step prices and — after priming both
// — the derivative rows of every unsatisfied result.
func requireSameEvaluator(t *testing.T, label string, got, want *evaluator) {
	t.Helper()
	bits := math.Float64bits
	if len(got.p) != len(want.p) || len(got.resultProb) != len(want.resultProb) {
		t.Fatalf("%s: sizes %d/%d vs %d/%d", label, len(got.p), len(got.resultProb), len(want.p), len(want.resultProb))
	}
	if got.nSat != want.nSat {
		t.Fatalf("%s: nSat %d vs %d", label, got.nSat, want.nSat)
	}
	if g, w := got.satAtMax(), want.satAtMax(); g != w {
		t.Fatalf("%s: satAtMax %d vs %d", label, g, w)
	}
	got.primeDerivs()
	want.primeDerivs()
	for ri := range want.resultProb {
		if bits(got.resultProb[ri]) != bits(want.resultProb[ri]) || got.satisfied[ri] != want.satisfied[ri] {
			t.Fatalf("%s: result %d = %v/%v vs %v/%v", label, ri, got.resultProb[ri], got.satisfied[ri], want.resultProb[ri], want.satisfied[ri])
		}
		if len(got.basesOf[ri]) != len(want.basesOf[ri]) || got.derivOK[ri] != want.derivOK[ri] {
			t.Fatalf("%s: result %d adjacency/derivOK diverged", label, ri)
		}
		for s, bi := range want.basesOf[ri] {
			if got.basesOf[ri][s] != bi {
				t.Fatalf("%s: basesOf[%d][%d] = %d vs %d", label, ri, s, got.basesOf[ri][s], bi)
			}
			if want.derivOK[ri] && bits(got.derivRow[ri][s]) != bits(want.derivRow[ri][s]) {
				t.Fatalf("%s: derivRow[%d][%d] = %v vs %v", label, ri, s, got.derivRow[ri][s], want.derivRow[ri][s])
			}
		}
	}
	for bi := range want.p {
		if bits(got.p[bi]) != bits(want.p[bi]) {
			t.Fatalf("%s: p[%d] = %v vs %v", label, bi, got.p[bi], want.p[bi])
		}
		gn, gc := got.stepPrice(bi)
		wn, wc := want.stepPrice(bi)
		if bits(gn) != bits(wn) || bits(gc) != bits(wc) {
			t.Fatalf("%s: stepPrice(%d) = %v,%v vs %v,%v", label, bi, gn, gc, wn, wc)
		}
		if len(got.resultsOf[bi]) != len(want.resultsOf[bi]) {
			t.Fatalf("%s: resultsOf[%d] length %d vs %d", label, bi, len(got.resultsOf[bi]), len(want.resultsOf[bi]))
		}
		for k, oc := range want.resultsOf[bi] {
			if g := got.resultsOf[bi][k]; g.ri != oc.ri || g.slot != oc.slot {
				t.Fatalf("%s: resultsOf[%d][%d] = %+v vs %+v", label, bi, k, g, oc)
			}
		}
	}
}

// mustEvaluator is newEvaluator for fixtures every formula of which
// compiles.
func mustEvaluator(t *testing.T, in *Instance, bs *budgetState) *evaluator {
	t.Helper()
	e, err := newEvaluator(in, bs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomWalk moves random tuples along their δ grids, pricing steps and
// probing gains on the way so every cache the evaluator owns gets dirty.
func randomWalk(e *evaluator, r *rand.Rand, steps int) {
	for i := 0; i < steps; i++ {
		bi := r.Intn(len(e.p))
		next, _ := e.stepPrice(bi)
		if r.Intn(4) == 0 {
			next = stepDown(e.in.Base[bi], e.in.Delta, e.p[bi])
		}
		e.deltaF(bi, next)
		e.setP(bi, next)
		if i%7 == 0 {
			e.primeDerivs()
		}
	}
}

// currentAssignment snapshots the evaluator's confidences by variable.
func currentAssignment(e *evaluator) lineage.MapAssignment {
	cur := lineage.MapAssignment{}
	for bi, b := range e.in.Base {
		cur[b.Var] = e.p[bi]
	}
	return cur
}

// requireMatchesReference holds the evaluator's state to the tree walk
// at its current confidences: every result probability equals
// lineage.Prob — bit for bit on read-once formulas, to 1e-12 on shared
// ones, where the kernel sums the same terms in another order — and the
// feasibility count equals the tree walk's at the maxima.
func requireMatchesReference(t *testing.T, label string, e *evaluator) {
	t.Helper()
	cur, atMax := currentAssignment(e), lineage.MapAssignment{}
	for _, b := range e.in.Base {
		atMax[b.Var] = b.maxP()
	}
	sat := 0
	for ri, r := range e.in.Results {
		got, want := e.resultProb[ri], lineage.Prob(r.Formula, cur)
		if r.Formula.ReadOnce() && got != want || math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: result %d probability %v, tree walk %v", label, ri, got, want)
		}
		if conf.GE(lineage.Prob(r.Formula, atMax), e.in.Beta) {
			sat++
		}
	}
	if got := e.satAtMax(); got != sat {
		t.Fatalf("%s: satAtMax %d, tree walk %d", label, got, sat)
	}
}

// TestEvaluatorMatchesReferenceDifferential is where the solvers'
// evaluator is checked against the tree walk now that no solver can run
// on it: on the plan differential's fixtures, after the build and after
// every step of a random walk, probabilities and the feasibility count
// match (requireMatchesReference) and the gain deltaF prices for the
// step equals (next − p)·Σ ∂F/∂p from lineage.Derivatives over the
// unsatisfied results the tuple feeds. chainInstance walks only the 19
// tuples of its 17-shared result, and only four steps: each costs three
// 2^17-assignment kernel sweeps.
func TestEvaluatorMatchesReferenceDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, f := range differentialFixtures() {
		from, steps := 0, 150 // the walk moves tuples from..len(Base)-1
		switch {
		case f.name == "chain-17":
			from, steps = len(f.in.Base)-19, 4
		case strings.HasPrefix(f.name, "small"):
			steps = 40
		}
		e := mustEvaluator(t, f.in, nil)
		requireMatchesReference(t, f.name+", fresh", e)
		for i := 0; i < steps; i++ {
			label := fmt.Sprintf("%s, step %d", f.name, i)
			bi := from + r.Intn(len(e.p)-from)
			next, _ := e.stepPrice(bi)
			if r.Intn(4) == 0 {
				next = stepDown(f.in.Base[bi], f.in.Delta, e.p[bi])
			}
			cur := currentAssignment(e)
			want := 0.0
			for _, oc := range e.resultsOf[bi] {
				if !e.satisfied[oc.ri] {
					want += (next - e.p[bi]) * lineage.Derivatives(f.in.Results[oc.ri].Formula, cur)[f.in.Base[bi].Var]
				}
			}
			if got := e.deltaF(bi, next); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: deltaF(%d, %v) = %v, tree walk %v", label, bi, next, got, want)
			}
			e.setP(bi, next)
			requireMatchesReference(t, label, e)
		}
	}
}

// TestPlanSnapshotOwnsItsMemory pins evaluator.plan, the one constructor
// of a solver Plan: its NewP and Satisfied are freshly allocated, so the
// evaluator resetting and walking on — what greedy, the exact search
// and every D&C group worker do after taking an incumbent — never
// changes a plan already handed out.
func TestPlanSnapshotOwnsItsMemory(t *testing.T) {
	in := mediumInstance(3, 60, 6, true)
	e := mustEvaluator(t, in, nil)
	for bi, b := range in.Base {
		e.setP(bi, b.maxP())
	}
	p := e.plan(7)
	newP, sat, cost := slices.Clone(p.NewP), slices.Clone(p.Satisfied), p.Cost
	if len(sat) == 0 {
		t.Fatal("fixture: no result reaches β at the maxima, Satisfied is not exercised")
	}
	e.reset()
	randomWalk(e, rand.New(rand.NewSource(3)), 300)
	if slices.Equal(e.p, newP) {
		t.Fatal("fixture: the evaluator did not move")
	}
	for i := range newP {
		if p.NewP[i] != newP[i] {
			t.Fatalf("plan changed after its evaluator moved on: NewP[%d] %v → %v", i, newP[i], p.NewP[i])
		}
	}
	if !slices.Equal(p.Satisfied, sat) || p.Cost != cost || p.Nodes != 7 {
		t.Fatalf("plan changed after its evaluator moved on: Satisfied %v → %v, Cost %v → %v", sat, p.Satisfied, cost, p.Cost)
	}
}

// TestEvaluatorResetMatchesFresh pins reset(): after an arbitrary walk,
// the evaluator is bit-equal to a fresh build — which is what lets the
// phases of a group solve share one.
func TestEvaluatorResetMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		in := mediumInstance(seed, 60, 6, true)
		e := mustEvaluator(t, in, nil)
		randomWalk(e, rand.New(rand.NewSource(seed)), 200)
		e.reset()
		requireSameEvaluator(t, "reset", e, mustEvaluator(t, in, nil))
		// And it still evaluates like one afterwards.
		fresh := mustEvaluator(t, in, nil)
		randomWalk(e, rand.New(rand.NewSource(seed+100)), 50)
		randomWalk(fresh, rand.New(rand.NewSource(seed+100)), 50)
		requireSameEvaluator(t, "walk after reset", e, fresh)
	}
}

// standalone copies group g of in into an instance of its own, the way
// the pre-retarget driver did, as the reference a re-targeted evaluator
// must equal.
func standalone(in *Instance, g Group) *Instance {
	sub := &Instance{Beta: in.Beta, Delta: in.Delta, Need: len(g.Results)}
	for _, bi := range g.Base {
		sub.Base = append(sub.Base, in.Base[bi])
	}
	for _, ri := range g.Results {
		sub.Results = append(sub.Results, in.Results[ri])
	}
	return sub
}

// pinTrapInstance alternates one-result clusters of two shapes over
// three tuples each: ((a ∧ s) ∨ (b ∧ s)), whose evaluation pins slot 2,
// and the read-once (a ∧ b ∧ c), which a stale pin on slot 2 corrupts.
func pinTrapInstance(n int) *Instance {
	in := &Instance{Beta: 0.6, Delta: 0.1, Need: n}
	for c := 0; c < n; c++ {
		var vs [3]*lineage.Expr
		for i := range vs {
			id := lineage.Var(3*c + i + 1)
			in.Base = append(in.Base, BaseTuple{Var: id, P: 0.2 + 0.01*float64(int(id)%30), Cost: cost.Linear{Rate: float64(1 + int(id)%7)}})
			vs[i] = lineage.NewVar(id)
		}
		f := lineage.And(vs[0], vs[1], vs[2])
		if c%2 == 0 {
			f = lineage.Or(lineage.And(vs[0], vs[2]), lineage.And(vs[1], vs[2]))
		}
		in.Results = append(in.Results, Result{ID: c, Formula: f})
	}
	return in
}

// TestEvaluatorRetargetMatchesFresh walks a worker over every group of
// an instance: the re-targeted evaluator over each group must equal a
// fresh one over the same group, whatever the previous group left
// behind — including (pinTrapInstance) a panic injected
// mid-pivot-enumeration, which leaves a machine's pin flags set
// (SetPivotHook's contract) right before a group they would corrupt.
func TestEvaluatorRetargetMatchesFresh(t *testing.T) {
	defer fault.Reset()
	for _, in := range []*Instance{clusteredInstance(6, 11), pinTrapInstance(6)} {
		bs, cancel := newBudgetState("test", context.Background(), Budget{MaxPivots: 1 << 40})
		defer cancel()
		root := mustEvaluator(t, in, bs)
		groups := partition(root, 1, 64)
		if len(groups) != 6 {
			t.Fatalf("groups = %d, want 6", len(groups))
		}
		w := newGroupWorker(NewDivideAndConquer(), root, bs, nil)
		r := rand.New(rand.NewSource(5))
		for _, g := range groups {
			w.target(&dncTask{g: g, need: len(g.Results)})
			requireSameEvaluator(t, "retarget", w.e, mustEvaluator(t, standalone(in, g), bs))
			randomWalk(w.e, r, 40)
			// Abort a shared-variable evaluation on its second pivot
			// assignment: the first one's pins are set by then.
			fault.Enable()
			hits := 0
			fault.Register(SitePivot, func() {
				if hits++; hits == 2 {
					panic("injected mid-enumeration")
				}
			})
			func() {
				defer func() { recover() }()
				for bi := range w.e.p {
					w.e.setP(bi, w.e.in.Base[bi].maxP())
				}
			}()
			fault.Reset()
		}
	}
}

// TestDnCCompilesEachFormulaOnce counts the compile probe over whole
// solves: the driver's evaluator compiles every result formula exactly
// once, and no group phase — feasibility, greedy, H1 keys, exact search,
// H3 mirror — compiles again, serial or parallel.
func TestDnCCompilesEachFormulaOnce(t *testing.T) {
	in := singletonGroupsInstance(300, 3)
	for _, workers := range []int{1, 4} {
		fault.Reset()
		fault.Enable()
		d := widened{&DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 64}, workers}
		plan, err := d.SolveContext(context.Background(), in, Budget{MaxNodes: 1 << 40})
		compiles := fault.Hits(SiteCompile)
		fault.Reset()
		if err != nil || plan == nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if compiles != int64(len(in.Results)) {
			t.Fatalf("workers=%d: %d compiles for %d distinct formulas", workers, compiles, len(in.Results))
		}
	}
}

// TestDnCGroupSpansBounded pins the span bound: a solve over hundreds of
// groups keeps maxGroupSpans "group" children and folds the rest into
// one "groups" rollup whose counters complete the decomposition.
func TestDnCGroupSpansBounded(t *testing.T) {
	in := singletonGroupsInstance(300, 4)
	root := obs.NewSpan("strategy")
	plan, err := NewDivideAndConquer().SolveContext(obs.ContextWithSpan(context.Background(), root), in, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	solve := root.Find("solve:divide-and-conquer")
	var spans, count, results, nodes int64
	for _, c := range solve.Children() {
		switch c.Name() {
		case "group":
			spans++
			count++
			results += c.Attr("results")
			nodes += c.Attr("nodes")
		case "groups":
			count += c.Attr("count")
			results += c.Attr("results")
			nodes += c.Attr("nodes")
			if c.Attr("micros") <= 0 || c.Attr("tuples") < 2*c.Attr("count") {
				t.Errorf("rollup attrs implausible: %v", c.Attrs())
			}
		}
	}
	if spans != maxGroupSpans {
		t.Errorf("group spans = %d, want %d", spans, maxGroupSpans)
	}
	if groups := solve.Find("partition").Attr("groups"); count > groups || count < int64(in.Need) {
		t.Errorf("recorded %d groups of %d (need %d)", count, groups, in.Need)
	}
	if results != count {
		t.Errorf("singleton groups: results %d != groups %d", results, count)
	}
	if nodes != int64(plan.Nodes) {
		t.Errorf("group + rollup nodes %d != plan nodes %d", nodes, plan.Nodes)
	}
}

// TestDnCSingletonGroupAllocs pins what a group sub-solve may allocate
// now that its evaluator pair is re-targeted instead of rebuilt, and its
// search tables, H3 mirror and greedy snapshots live on the worker.
// Rebuilding five throw-away evaluators per group once cost ≈285
// allocations on this instance, re-targeting them 36; the whole solve
// now measures 20.9 per group, and the budget is that plus a quarter.
func TestDnCSingletonGroupAllocs(t *testing.T) {
	const groups, budget = 2000, 26
	in := singletonGroupsInstance(groups, 9)
	d := NewDivideAndConquer()
	perSolve := testing.AllocsPerRun(3, func() {
		if _, err := solve(d, in); err != nil {
			t.Fatal(err)
		}
	})
	if perGroup := perSolve / groups; perGroup > budget {
		t.Fatalf("%.1f allocations per group, budget %d", perGroup, budget)
	}
}
