package lineage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The propose path hands the solver the lineage the policy filter
// priced, unsimplified: duplicate-eliminating operators leave repeated
// and absorbed sub-formulas in it. The tests below hold both evaluators
// to the simplification laws — idempotence, absorption, complement — by
// pricing a raw formula against its simplified form, and hold the local
// simplification that remains (the constructors' unit and zero laws,
// which Substitute applies as it rebuilds) to the formula's semantics.

// pricesAs checks that e, priced by the tree walk and by the compiled
// kernel, has the probability of its simplified form s.
func pricesAs(t *testing.T, e, s *Expr) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(len(e.String()))))
	prog := mustCompile(t, e)
	m := NewMachine(prog)
	for trial := 0; trial < 20; trial++ {
		assign := randomAssign(r, e)
		want := Prob(s, assign)
		if got := Prob(e, assign); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Prob(%v) = %v, want P(%v) = %v", e, got, s, want)
		}
		if got := m.Prob(probsFor(prog, assign)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("compiled Prob(%v) = %v, want P(%v) = %v", e, got, s, want)
		}
	}
}

func TestSimplifyIdempotence(t *testing.T) {
	a := NewVar(1)
	pricesAs(t, And(a, a), a)
	pricesAs(t, Or(a, a), a)
	pricesAs(t, Or(And(a, a), a), a)
}

func TestSimplifyAbsorption(t *testing.T) {
	a, b := NewVar(1), NewVar(2)
	pricesAs(t, Or(a, And(a, b)), a)
	pricesAs(t, And(a, Or(a, b)), a)
	// A compound absorber.
	ab := And(a, b)
	pricesAs(t, Or(ab, And(a, b, NewVar(3))), ab)
}

func TestSimplifyComplement(t *testing.T) {
	a := NewVar(1)
	pricesAs(t, And(a, Not(a)), False())
	pricesAs(t, Or(a, Not(a)), True())
	ab := And(NewVar(1), NewVar(2))
	pricesAs(t, Or(ab, Not(ab)), True())
}

func TestSimplifyLeavesIrreducibleAlone(t *testing.T) {
	// A read-once formula is priced as it stands, without a pivot, and
	// substituting a variable it does not mention rebuilds it unchanged.
	e := And(Or(NewVar(1), NewVar(2)), NewVar(3))
	if got := shannonOrder(e.sortedOccurrences(nil)); len(got) != 0 {
		t.Errorf("read-once formula has pivots %v", got)
	}
	if !mustCompile(t, e).ReadOnce() {
		t.Error("read-once formula compiled with pivots")
	}
	if got := e.Substitute(99, true); got.String() != e.String() {
		t.Errorf("irreducible changed: %v", got)
	}
	if x := NewVar(1); x.Substitute(99, false) != x {
		t.Error("var changed")
	}
	if got := True().Substitute(1, false); got != True() {
		t.Errorf("⊤ changed: %v", got)
	}
}

func TestSimplifyShrinksRepeatedOrChains(t *testing.T) {
	// The DISTINCT-merge pattern: the same candidate lineage OR-ed in
	// again and again. Unsimplified, the chain costs as many pivots as
	// the base has variables, whatever its length, prices as the base,
	// and the first pivot's false branch collapses it.
	base := And(NewVar(1), NewVar(2))
	e := base
	for i := 0; i < 5; i++ {
		e = Or(e, base)
	}
	if got := shannonOrder(e.sortedOccurrences(nil)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("pivot order %v, want [1 2]", got)
	}
	pricesAs(t, e, base)
	if got := e.Substitute(1, false); got.String() != "⊥" {
		t.Fatalf("t1=false left %v", got)
	}
}

func TestPropertySimplifyPreservesSemantics(t *testing.T) {
	// Substituting one variable (the constructors simplify the rebuilt
	// formula) agrees with evaluating the original under that value.
	r := rand.New(rand.NewSource(51))
	f := func(seed int64, truthBits uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 5, 3)
		v, val := Var(rr.Intn(5)), rr.Intn(2) == 1
		assign := map[Var]bool{}
		for i := 0; i < 5; i++ {
			assign[Var(i)] = truthBits&(1<<i) != 0
		}
		s := e.Substitute(v, val)
		assign[v] = val
		return e.Eval(assign) == s.Eval(assign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySimplifyPreservesProbability(t *testing.T) {
	// Compound idempotence and absorption: a random formula A priced as
	// A ∧ A and as A ∨ (A ∧ x) has A's probability in both evaluators.
	r := rand.New(rand.NewSource(53))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomExpr(rr, 5, 3)
		pa := MapAssignment{5: rr.Float64()}
		for i := 0; i < 5; i++ {
			pa[Var(i)] = rr.Float64()
		}
		want := Prob(a, pa)
		for _, e := range []*Expr{And(a, a), Or(a, And(a, NewVar(5)))} {
			prog := mustCompile(t, e)
			if math.Abs(Prob(e, pa)-want) > 1e-12 || math.Abs(NewMachine(prog).Prob(probsFor(prog, pa))-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySimplifyNeverGrows(t *testing.T) {
	// Substitution drops every occurrence of the variable and adds none:
	// the rebuilt formula never has more occurrences or pivots.
	r := rand.New(rand.NewSource(59))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 5, 3)
		v := Var(rr.Intn(5))
		occ := e.sortedOccurrences(nil)
		s := e.Substitute(v, rr.Intn(2) == 1).sortedOccurrences(nil)
		nv := 0
		for _, w := range occ {
			if w == v {
				nv++
			}
		}
		for _, w := range s {
			if w == v {
				return false
			}
		}
		return len(s) <= len(occ)-nv && len(shannonOrder(s)) <= len(shannonOrder(occ))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Fatal(err)
	}
}
