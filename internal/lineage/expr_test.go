package lineage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestConstructorsSimplify(t *testing.T) {
	a, b := NewVar(1), NewVar(2)
	tests := []struct {
		name string
		got  *Expr
		want *Expr
	}{
		{"and-empty", And(), True()},
		{"or-empty", Or(), False()},
		{"and-single", And(a), a},
		{"or-single", Or(b), b},
		{"and-true-unit", And(a, True()), a},
		{"or-false-unit", Or(b, False()), b},
		{"and-false-zero", And(a, False(), b), False()},
		{"or-true-zero", Or(a, True(), b), True()},
		{"not-not", Not(Not(a)), a},
		{"not-true", Not(True()), False()},
		{"not-false", Not(False()), True()},
		{"and-flatten", And(And(a, b), NewVar(3)), And(a, b, NewVar(3))},
		{"or-flatten", Or(a, Or(b, NewVar(3))), Or(a, b, NewVar(3))},
		{"and-nil-skipped", And(a, nil, b), And(a, b)},
	}
	for _, tc := range tests {
		if tc.got.String() != tc.want.String() {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestVarsAndCounts(t *testing.T) {
	e := And(Or(NewVar(2), NewVar(3)), NewVar(13), NewVar(2))
	if got, want := e.Vars(), []Var{2, 3, 13}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	if got := shannonOrder(e.sortedOccurrences(nil)); !reflect.DeepEqual(got, []Var{2}) {
		t.Fatalf("pivot order = %v, want [2]", got)
	}
	// Most occurrences first, ties by ascending variable.
	f := Or(And(NewVar(9), NewVar(4), NewVar(7)), And(NewVar(7), NewVar(9), NewVar(4)), And(NewVar(4), NewVar(1)))
	if got, want := shannonOrder(f.sortedOccurrences(nil)), []Var{4, 7, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pivot order = %v, want %v", got, want)
	}
	if e.ReadOnce() {
		t.Fatal("expected non-read-once")
	}
	if !Or(NewVar(2), NewVar(3)).ReadOnce() {
		t.Fatal("expected read-once")
	}
}

func TestEval(t *testing.T) {
	e := And(Or(NewVar(1), NewVar(2)), Not(NewVar(3)))
	cases := []struct {
		assign map[Var]bool
		want   bool
	}{
		{map[Var]bool{1: true, 3: false}, true},
		{map[Var]bool{2: true, 3: false}, true},
		{map[Var]bool{1: true, 3: true}, false},
		{map[Var]bool{3: false}, false},
		{nil, false},
	}
	for i, c := range cases {
		if got := e.Eval(c.assign); got != c.want {
			t.Errorf("case %d: Eval(%v) = %v, want %v", i, c.assign, got, c.want)
		}
	}
}

func TestSubstitute(t *testing.T) {
	e := And(Or(NewVar(1), NewVar(2)), NewVar(1))
	// Substituting t1=true: (true | t2) & true = true.
	if got := e.Substitute(1, true); got.String() != "⊤" {
		t.Errorf("Substitute(1,true) = %v, want ⊤", got)
	}
	if got := e.Substitute(1, false); got.String() != "⊥" {
		t.Errorf("Substitute(1,false) = %v, want ⊥", got)
	}
	if got := e.Substitute(99, true); got.String() != e.String() {
		t.Errorf("Substitute(absent var) changed expr: %v", got)
	}
}

func TestMonotone(t *testing.T) {
	if !And(NewVar(1), Or(NewVar(2), NewVar(3))).Monotone() {
		t.Error("AND/OR tree should be monotone")
	}
	if Or(NewVar(1), Not(NewVar(2))).Monotone() {
		t.Error("negation should break monotonicity")
	}
	if !True().Monotone() || !False().Monotone() {
		t.Error("constants are monotone")
	}
}

func TestStringFormat(t *testing.T) {
	e := And(Or(NewVar(2), NewVar(3)), NewVar(13))
	if got := e.String(); got != "((t2 | t3) & t13)" {
		t.Errorf("String = %q", got)
	}
	if got := Not(NewVar(1)).String(); got != "!t1" {
		t.Errorf("String = %q", got)
	}
	if True().String() != "⊤" || False().String() != "⊥" {
		t.Error("constant rendering wrong")
	}
}

// randomExpr builds a random expression over vars 0..nVars-1 with the
// given node budget. Used by property tests here and in prob_test.go.
func randomExpr(r *rand.Rand, nVars, depth int) *Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		return NewVar(Var(r.Intn(nVars)))
	}
	switch r.Intn(4) {
	case 0:
		return Not(randomExpr(r, nVars, depth-1))
	case 1:
		n := 2 + r.Intn(3)
		children := make([]*Expr, n)
		for i := range children {
			children[i] = randomExpr(r, nVars, depth-1)
		}
		return And(children...)
	default:
		n := 2 + r.Intn(3)
		children := make([]*Expr, n)
		for i := range children {
			children[i] = randomExpr(r, nVars, depth-1)
		}
		return Or(children...)
	}
}

func TestPropertySubstituteAgreesWithEval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64, truthBits uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 5, 3)
		assign := map[Var]bool{}
		for i := 0; i < 5; i++ {
			assign[Var(i)] = truthBits&(1<<i) != 0
		}
		// Substituting every variable must collapse to the constant
		// matching Eval.
		reduced := e
		for v, val := range assign {
			reduced = reduced.Substitute(v, val)
		}
		val, isConst := reduced.IsConst()
		return isConst && val == e.Eval(assign)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeMorganViaEval(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(seed int64, truthBits uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomExpr(rr, 4, 2)
		b := randomExpr(rr, 4, 2)
		assign := map[Var]bool{}
		for i := 0; i < 4; i++ {
			assign[Var(i)] = truthBits&(1<<i) != 0
		}
		lhs := Not(And(a, b)).Eval(assign)
		rhs := Or(Not(a), Not(b)).Eval(assign)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}
