package strategy

import (
	"math"
	"strings"
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
)

// These tests pin the epsilon discipline after the migration from
// inline 1e-12/1e-9 literals to the conf helpers: the comparisons must
// behave exactly as before, and verification stays deliberately looser
// than planning.

func epsInstance(beta float64) *Instance {
	return &Instance{
		Base: []BaseTuple{
			{Var: 1, P: 0.5, Cost: cost.Linear{Rate: 1}},
		},
		Results: []Result{{ID: 0, Formula: lineage.NewVar(1)}},
		Beta:    beta,
		Need:    1,
		Delta:   0.1,
	}
}

func TestVerifyAbsorbsSubEpsBoundsDrift(t *testing.T) {
	in := epsInstance(0.4)
	// NewP an Eps-hair below the current confidence: a recomputation
	// artifact, not a real lowering. Must verify.
	p := &Plan{NewP: []float64{0.5 - 1e-13}, Cost: 0}
	if err := in.Verify(p); err != nil {
		t.Fatalf("sub-Eps lowering rejected: %v", err)
	}
	// A real lowering fails.
	p = &Plan{NewP: []float64{0.5 - 1e-6}, Cost: 0}
	if err := in.Verify(p); err == nil || !strings.Contains(err.Error(), "lowers") {
		t.Fatalf("err = %v, want a lowering rejection", err)
	}
	// An Eps-hair above the maximum is drift; a real overshoot fails.
	p = &Plan{NewP: []float64{1 + 1e-13}, Cost: 0.5}
	if err := in.Verify(p); err != nil {
		t.Fatalf("sub-Eps overshoot rejected: %v", err)
	}
	p = &Plan{NewP: []float64{1.001}, Cost: 0.501}
	if err := in.Verify(p); err == nil || !strings.Contains(err.Error(), "maximum") {
		t.Fatalf("err = %v, want a maximum rejection", err)
	}
}

func TestVerifyUsesLooseThresholdTolerance(t *testing.T) {
	// The plan leaves the single result 5e-10 short of β — within
	// VerifyEps (1e-9) but far beyond the planning Eps (1e-12). Verify
	// must accept it: the verifier may recompute along a different
	// evaluation path than the solver and must not reject a plan the
	// solver honestly satisfied.
	beta := 0.7
	in := epsInstance(beta)
	short := beta - 5e-10
	p := &Plan{NewP: []float64{short}, Cost: short - 0.5}
	if err := in.Verify(p); err != nil {
		t.Fatalf("sub-VerifyEps shortfall rejected: %v", err)
	}
	// Beyond VerifyEps the shortfall is real.
	short = beta - 1e-6
	p = &Plan{NewP: []float64{short}, Cost: short - 0.5}
	if err := in.Verify(p); err == nil || !strings.Contains(err.Error(), "satisfies") {
		t.Fatalf("err = %v, want a satisfaction rejection", err)
	}
}

func TestSolversThresholdEpsilonUnchanged(t *testing.T) {
	// A β exactly equal to the reachable confidence (grid point 0.6)
	// must count as satisfied under conf.GE — this pins the ≥ semantics
	// the paper's Definition 1 compliance layer compensates for with
	// betaMargin.
	in := epsInstance(0.6)
	for _, s := range solvers() {
		plan, err := solve(s, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if math.Abs(plan.NewP[0]-0.6) > 1e-9 {
			t.Errorf("%s: NewP = %v, want exactly one δ step to 0.6", s.Name(), plan.NewP[0])
		}
	}
}

func TestStepUpDownEpsilonGuards(t *testing.T) {
	b := BaseTuple{Var: 1, P: 0.5, MaxP: 0.8, Cost: cost.Linear{Rate: 1}}
	// Exhausted tuple: stepping up from its maximum returns the input.
	if got := stepUp(b, 0.1, 0.8); got != 0.8 {
		t.Fatalf("stepUp at max = %v", got)
	}
	// A δ smaller than Eps would be swallowed by the guard — pinned so
	// nobody "fixes" the guard into accepting sub-Eps progress.
	if got := stepUp(b, 1e-13, 0.6); got != 0.6 {
		t.Fatalf("sub-Eps δ produced progress: %v", got)
	}
	// stepDown from (within Eps of) the floor stays at the floor.
	if got := stepDown(b, 0.1, 0.5+1e-13); got != 0.5 {
		t.Fatalf("stepDown near floor = %v", got)
	}
	if got := stepDown(b, 0.1, 0.7); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("stepDown(0.7) = %v, want 0.6", got)
	}
}
