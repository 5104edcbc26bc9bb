package lineage

import (
	"math"
	"math/rand"
	"testing"
)

// probsFor builds the dense slot-probability vector of p from a map
// assignment.
func probsFor(p *Program, assign MapAssignment) []float64 {
	probs := make([]float64, p.NumSlots())
	for i, v := range p.Vars() {
		probs[i] = assign[v]
	}
	return probs
}

// mustCompile compiles e under the limit the engine uses.
func mustCompile(t testing.TB, e *Expr) *Program {
	t.Helper()
	p, err := CompileExact(e, DefaultSharedLimit)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomAssign(r *rand.Rand, e *Expr) MapAssignment {
	assign := MapAssignment{}
	for _, v := range e.Vars() {
		assign[v] = r.Float64()
	}
	return assign
}

// TestDifferentialCompiledProbReadOnce: on read-once formulas the
// compiled inside pass mirrors probReadOnce's multiplication order, so
// probabilities must be bit-identical, not merely close.
func TestDifferentialCompiledProbReadOnce(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 300; trial++ {
		e := randomReadOnceExpr(r, 1+r.Intn(12))
		assign := randomAssign(r, e)
		p := mustCompile(t, e)
		if !p.ReadOnce() {
			t.Fatalf("trial %d: read-once formula compiled with pivots (e=%v)", trial, e)
		}
		m := NewMachine(p)
		got := m.Prob(probsFor(p, assign))
		want := ProbIndependent(e, assign)
		if got != want {
			t.Fatalf("trial %d: compiled prob %v != tree-walk %v (must be bit-identical, e=%v)", trial, got, want, e)
		}
	}
}

// TestDifferentialCompiledDerivReadOnce: the fused inside–outside sweep
// must reproduce Derivatives bit-identically on read-once formulas (the
// strategy solvers' plan-identity guarantee rests on this).
func TestDifferentialCompiledDerivReadOnce(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	for trial := 0; trial < 300; trial++ {
		e := randomReadOnceExpr(r, 1+r.Intn(12))
		assign := randomAssign(r, e)
		p := mustCompile(t, e)
		m := NewMachine(p)
		probs := probsFor(p, assign)
		deriv := make([]float64, p.NumSlots())
		gotProb := m.ProbDeriv(probs, deriv)
		if want := ProbIndependent(e, assign); gotProb != want {
			t.Fatalf("trial %d: fused prob %v != %v", trial, gotProb, want)
		}
		wantDeriv := Derivatives(e, assign)
		for i, v := range p.Vars() {
			if deriv[i] != wantDeriv[v] {
				t.Fatalf("trial %d: ∂/∂%d = %v, want %v (must be bit-identical, e=%v)",
					trial, v, deriv[i], wantDeriv[v], e)
			}
		}
	}
}

// TestDifferentialCompiledProbShared: shared-variable formulas take the
// compiled Shannon-enumeration path; it must agree with the tree-walk
// substitution-based Shannon expansion.
func TestDifferentialCompiledProbShared(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 300; trial++ {
		e := randomExpr(r, 2+r.Intn(6), 3)
		assign := randomAssign(r, e)
		p := mustCompile(t, e)
		m := NewMachine(p)
		got := m.Prob(probsFor(p, assign))
		want := Prob(e, assign)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: compiled prob %v, tree-walk %v (e=%v)", trial, got, want, e)
		}
	}
}

// TestDifferentialCompiledDerivShared: pivot derivatives from the
// enumeration must match per-variable pinned evaluation.
func TestDifferentialCompiledDerivShared(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	for trial := 0; trial < 200; trial++ {
		e := randomExpr(r, 2+r.Intn(6), 3)
		assign := randomAssign(r, e)
		p := mustCompile(t, e)
		m := NewMachine(p)
		probs := probsFor(p, assign)
		deriv := make([]float64, p.NumSlots())
		gotProb := m.ProbDeriv(probs, deriv)
		if want := Prob(e, assign); math.Abs(gotProb-want) > 1e-12 {
			t.Fatalf("trial %d: fused prob %v, want %v", trial, gotProb, want)
		}
		for i, v := range p.Vars() {
			want := Derivative(e, assign, v)
			if math.Abs(deriv[i]-want) > 1e-9 {
				t.Fatalf("trial %d: ∂/∂%d = %v, want %v (e=%v)", trial, v, deriv[i], want, e)
			}
		}
	}
}

// TestDifferentialCompiledProbPinned compares the kernel at a variable
// pinned false and true (probability 0 and 1, where the pivot
// enumeration skips zero-weight assignments) against the package-level
// ProbPinned, which substitutes the constant into the formula.
func TestDifferentialCompiledProbPinned(t *testing.T) {
	r := rand.New(rand.NewSource(105))
	for trial := 0; trial < 200; trial++ {
		e := randomExpr(r, 2+r.Intn(5), 3)
		assign := randomAssign(r, e)
		p := mustCompile(t, e)
		m := NewMachine(p)
		probs := probsFor(p, assign)
		for i, v := range p.Vars() {
			before := probs[i]
			probs[i] = 0
			g0 := m.Prob(probs)
			probs[i] = 1
			g1 := m.Prob(probs)
			probs[i] = before
			w0, w1 := ProbPinned(e, assign, v)
			if math.Abs(g0-w0) > 1e-12 || math.Abs(g1-w1) > 1e-12 {
				t.Fatalf("trial %d: pinned (%v,%v), want (%v,%v) for %d (e=%v)",
					trial, g0, g1, w0, w1, v, e)
			}
		}
	}
}

// TestDifferentialCompiledBruteForce checks the compiled evaluator
// against the exponential truth-table oracle at small sizes.
func TestDifferentialCompiledBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(106))
	for trial := 0; trial < 150; trial++ {
		e := randomExpr(r, 2+r.Intn(5), 3)
		assign := randomAssign(r, e)
		p := mustCompile(t, e)
		m := NewMachine(p)
		got := m.Prob(probsFor(p, assign))
		want, err := ProbBruteForce(e, assign)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: compiled %v, brute force %v (e=%v)", trial, got, want, e)
		}
	}
}

// TestDifferentialCompiledMachineReuse re-evaluates one machine under
// changing probabilities — the solver access pattern — and checks no
// state leaks between sweeps.
func TestDifferentialCompiledMachineReuse(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	e := randomExpr(r, 6, 3)
	p := mustCompile(t, e)
	m := NewMachine(p)
	probs := make([]float64, p.NumSlots())
	deriv := make([]float64, p.NumSlots())
	for trial := 0; trial < 100; trial++ {
		assign := MapAssignment{}
		for i, v := range p.Vars() {
			probs[i] = r.Float64()
			assign[v] = probs[i]
		}
		want := Prob(e, assign)
		if got := m.Prob(probs); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: Prob %v, want %v", trial, got, want)
		}
		if got := m.ProbDeriv(probs, deriv); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: ProbDeriv prob %v, want %v", trial, got, want)
		}
	}
}

func TestCompileConstantsAndSingleVar(t *testing.T) {
	for _, tc := range []struct {
		e    *Expr
		want float64
	}{
		{False(), 0},
		{True(), 1},
		{NewVar(7), 0.3},
		{Not(NewVar(7)), 0.7},
	} {
		p := mustCompile(t, tc.e)
		m := NewMachine(p)
		probs := make([]float64, p.NumSlots())
		for i := range probs {
			probs[i] = 0.3
		}
		if got := m.Prob(probs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Prob(%v) = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestCompileExactSharedLimit(t *testing.T) {
	// x appears twice: one pivot.
	e := Or(And(NewVar(1), NewVar(2)), And(NewVar(1), NewVar(3)))
	if _, err := CompileExact(e, 0); err == nil {
		t.Fatal("CompileExact(limit 0) accepted a shared-variable formula")
	}
	p, err := CompileExact(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReadOnce() || len(p.SharedSlots()) != 1 {
		t.Fatalf("shared slots = %v, want exactly the pivot for var 1", p.SharedSlots())
	}
	if v := p.Vars()[p.SharedSlots()[0]]; v != 1 {
		t.Fatalf("pivot slot %d holds var %d, want var 1", p.SharedSlots()[0], v)
	}
}

func TestCompiledDerivClampedOutOfRange(t *testing.T) {
	// Out-of-range and NaN inputs clamp exactly like the tree walk.
	e := And(NewVar(1), NewVar(2))
	p := mustCompile(t, e)
	m := NewMachine(p)
	probs := []float64{1.7, math.NaN()}
	assign := MapAssignment{1: 1.7, 2: math.NaN()}
	if got, want := m.Prob(probs), ProbIndependent(e, assign); got != want {
		t.Fatalf("clamped prob %v, want %v", got, want)
	}
}

// TestMachineCounters pins the machine's lifetime work counters: evals
// counts Prob/ProbDeriv calls, pivots counts Shannon assignments (two
// per eval for one shared variable, zero for read-once programs).
func TestMachineCounters(t *testing.T) {
	x1, x2, x3 := NewVar(1), NewVar(2), NewVar(3)
	shared := Or(And(x1, x2), And(x1, x3)) // x1 is shared: one pivot
	p := mustCompile(t, shared)
	if p.ReadOnce() {
		t.Fatalf("formula %v must compile with pivots", shared)
	}
	m := NewMachine(p)
	probs := make([]float64, p.NumSlots())
	for i := range probs {
		probs[i] = 0.5
	}
	deriv := make([]float64, p.NumSlots())
	m.Prob(probs)
	m.ProbDeriv(probs, deriv)
	m.Prob(probs)
	evals, pivots := m.Counters()
	if evals != 3 {
		t.Errorf("evals = %d, want 3", evals)
	}
	if pivots != 6 { // 2 assignments per evaluation × 3 evaluations
		t.Errorf("pivots = %d, want 6", pivots)
	}

	ro := mustCompile(t, And(x1, x2))
	mr := NewMachine(ro)
	mr.Prob(make([]float64, ro.NumSlots()))
	if evals, pivots := mr.Counters(); evals != 1 || pivots != 0 {
		t.Errorf("read-once counters = (%d, %d), want (1, 0)", evals, pivots)
	}
}
