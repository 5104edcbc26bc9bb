package relation

import (
	"testing"
)

func evalExpr(t *testing.T, e Expr, tuple *Tuple) Value {
	t.Helper()
	v, err := e.Eval(tuple)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	tup := NewTuple(nil, nil)
	cases := []struct {
		e    Expr
		want Value
	}{
		{&Binary{Op: OpAdd, Left: Const{Int(2)}, Right: Const{Int(3)}}, Int(5)},
		{&Binary{Op: OpSub, Left: Const{Int(2)}, Right: Const{Int(3)}}, Int(-1)},
		{&Binary{Op: OpMul, Left: Const{Int(2)}, Right: Const{Int(3)}}, Int(6)},
		{&Binary{Op: OpDiv, Left: Const{Int(3)}, Right: Const{Int(2)}}, Float(1.5)},
		{&Binary{Op: OpAdd, Left: Const{Int(2)}, Right: Const{Float(0.5)}}, Float(2.5)},
		{&Binary{Op: OpMul, Left: Const{Float(2)}, Right: Const{Float(3)}}, Float(6)},
	}
	for _, c := range cases {
		if got := evalExpr(t, c.e, tup); !Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	// Division by zero yields NULL.
	if got := evalExpr(t, &Binary{Op: OpDiv, Left: Const{Int(1)}, Right: Const{Int(0)}}, tup); !got.IsNull() {
		t.Errorf("1/0 = %v, want NULL", got)
	}
	// Arithmetic over text errors.
	bad := &Binary{Op: OpAdd, Left: Const{String_("a")}, Right: Const{Int(1)}}
	if _, err := bad.Eval(tup); err == nil {
		t.Error("text arithmetic should fail")
	}
}

func TestComparisonsAndNullPropagation(t *testing.T) {
	tup := NewTuple(nil, nil)
	tests := []struct {
		op   BinaryOp
		l, r Value
		want Value
	}{
		{OpEq, Int(1), Int(1), Bool(true)},
		{OpNe, Int(1), Int(2), Bool(true)},
		{OpLt, Int(1), Float(1.5), Bool(true)},
		{OpLe, Int(2), Int(2), Bool(true)},
		{OpGt, String_("b"), String_("a"), Bool(true)},
		{OpGe, String_("a"), String_("b"), Bool(false)},
		{OpEq, Null(), Int(1), Null()},
		{OpLt, Int(1), Null(), Null()},
	}
	for _, c := range tests {
		e := &Binary{Op: c.op, Left: Const{c.l}, Right: Const{c.r}}
		got := evalExpr(t, e, tup)
		if got.IsNull() != c.want.IsNull() || (!got.IsNull() && !Equal(got, c.want)) {
			t.Errorf("%v %s %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
}

func TestLogicShortCircuitAndThreeValued(t *testing.T) {
	tup := NewTuple(nil, nil)
	// false AND <error> short-circuits; the error branch never runs.
	boom := &Binary{Op: OpAdd, Left: Const{String_("x")}, Right: Const{Int(1)}}
	e := &Binary{Op: OpAnd, Left: Const{Bool(false)}, Right: boom}
	if got := evalExpr(t, e, tup); !Equal(got, Bool(false)) {
		t.Errorf("false AND err = %v", got)
	}
	e = &Binary{Op: OpOr, Left: Const{Bool(true)}, Right: boom}
	if got := evalExpr(t, e, tup); !Equal(got, Bool(true)) {
		t.Errorf("true OR err = %v", got)
	}
	// NULL in logic propagates.
	e = &Binary{Op: OpAnd, Left: Const{Bool(true)}, Right: Const{Null()}}
	if got := evalExpr(t, e, tup); !got.IsNull() {
		t.Errorf("true AND NULL = %v", got)
	}
	// Non-boolean operands error.
	e = &Binary{Op: OpAnd, Left: Const{Bool(true)}, Right: Const{Int(1)}}
	if _, err := e.Eval(tup); err == nil {
		t.Error("AND over int should fail")
	}
}

func TestUnaryOps(t *testing.T) {
	tup := NewTuple(nil, nil)
	if got := evalExpr(t, &Unary{Op: OpNot, Child: Const{Bool(true)}}, tup); !Equal(got, Bool(false)) {
		t.Errorf("NOT true = %v", got)
	}
	if got := evalExpr(t, &Unary{Op: OpNot, Child: Const{Null()}}, tup); !got.IsNull() {
		t.Errorf("NOT NULL = %v", got)
	}
	if got := evalExpr(t, &Unary{Op: OpNeg, Child: Const{Int(3)}}, tup); !Equal(got, Int(-3)) {
		t.Errorf("-3 = %v", got)
	}
	if got := evalExpr(t, &Unary{Op: OpNeg, Child: Const{Float(2.5)}}, tup); !Equal(got, Float(-2.5)) {
		t.Errorf("-2.5 = %v", got)
	}
	if got := evalExpr(t, &Unary{Op: OpIsNull, Child: Const{Null()}}, tup); !Equal(got, Bool(true)) {
		t.Errorf("NULL IS NULL = %v", got)
	}
	if got := evalExpr(t, &Unary{Op: OpIsNotNull, Child: Const{Int(1)}}, tup); !Equal(got, Bool(true)) {
		t.Errorf("1 IS NOT NULL = %v", got)
	}
	if _, err := (&Unary{Op: OpNot, Child: Const{Int(1)}}).Eval(tup); err == nil {
		t.Error("NOT int should fail")
	}
	if _, err := (&Unary{Op: OpNeg, Child: Const{String_("x")}}).Eval(tup); err == nil {
		t.Error("negating text should fail")
	}
}

func TestLikeMatching(t *testing.T) {
	tup := NewTuple(nil, nil)
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"abc", "a%c", true},
		{"Hello", "hello", true}, // case-insensitive
		{"ab", "a%b%c", false},
	}
	for _, c := range cases {
		e := &Like{Child: Const{String_(c.s)}, Pattern: c.pat}
		got := evalExpr(t, e, tup)
		if b, _ := got.AsBool(); b != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pat, b, c.want)
		}
	}
	neg := &Like{Child: Const{String_("abc")}, Pattern: "x%", Negate: true}
	if got := evalExpr(t, neg, tup); !Equal(got, Bool(true)) {
		t.Errorf("NOT LIKE = %v", got)
	}
	if got := evalExpr(t, &Like{Child: Const{Null()}, Pattern: "%"}, tup); !got.IsNull() {
		t.Errorf("NULL LIKE = %v", got)
	}
	if _, err := (&Like{Child: Const{Int(1)}, Pattern: "%"}).Eval(tup); err == nil {
		t.Error("LIKE over int should fail")
	}
}

func TestColRefOutOfRange(t *testing.T) {
	c := &ColRef{Index: 3, Col: Column{Name: "x", Type: TypeInt}}
	if _, err := c.Eval(NewTuple([]Value{Int(1)}, nil)); err == nil {
		t.Error("out-of-range column should fail")
	}
}

func TestEvalBoolSemantics(t *testing.T) {
	tup := NewTuple(nil, nil)
	if ok, err := EvalBool(Const{Bool(true)}, tup); err != nil || !ok {
		t.Error("true predicate")
	}
	if ok, err := EvalBool(Const{Null()}, tup); err != nil || ok {
		t.Error("NULL predicate is not-true")
	}
	if _, err := EvalBool(Const{Int(1)}, tup); err == nil {
		t.Error("non-boolean predicate should fail")
	}
}

func TestExprTypesAndStrings(t *testing.T) {
	cmp := &Binary{Op: OpLt, Left: Const{Int(1)}, Right: Const{Int(2)}}
	if cmp.Type() != TypeBool {
		t.Error("comparison type")
	}
	add := &Binary{Op: OpAdd, Left: Const{Int(1)}, Right: Const{Int(2)}}
	if add.Type() != TypeInt {
		t.Error("int add type")
	}
	div := &Binary{Op: OpDiv, Left: Const{Int(1)}, Right: Const{Int(2)}}
	if div.Type() != TypeFloat {
		t.Error("div type")
	}
	mixed := &Binary{Op: OpAdd, Left: Const{Int(1)}, Right: Const{Float(2)}}
	if mixed.Type() != TypeFloat {
		t.Error("mixed add type")
	}
	if s := cmp.String(); s != "(1 < 2)" {
		t.Errorf("String = %q", s)
	}
	if s := (Const{String_("x")}).String(); s != "'x'" {
		t.Errorf("string const = %q", s)
	}
	if s := (&Unary{Op: OpIsNull, Child: Const{Int(1)}}).String(); s != "1 IS NULL" {
		t.Errorf("IS NULL string = %q", s)
	}
	if s := (&Like{Child: Const{String_("a")}, Pattern: "x%"}).String(); s != "'a' LIKE 'x%'" {
		t.Errorf("LIKE string = %q", s)
	}
}

// TestLogicTruthTables holds AND and OR to SQL's three-valued tables
// over {TRUE, FALSE, NULL}²: FALSE decides AND and TRUE decides OR from
// either side, and the result is NULL only when neither side decides.
func TestLogicTruthTables(t *testing.T) {
	tup := NewTuple(nil, nil)
	T, F, N := Bool(true), Bool(false), Null()
	for _, c := range []struct {
		l, r, and, or Value
	}{
		{T, T, T, T}, {T, F, F, T}, {T, N, N, T},
		{F, T, F, T}, {F, F, F, F}, {F, N, F, N},
		{N, T, N, T}, {N, F, F, N}, {N, N, N, N},
	} {
		for op, want := range map[BinaryOp]Value{OpAnd: c.and, OpOr: c.or} {
			got := evalExpr(t, &Binary{Op: op, Left: Const{c.l}, Right: Const{c.r}}, tup)
			if got.IsNull() != want.IsNull() || !got.IsNull() && !Equal(got, want) {
				t.Errorf("%v %s %v = %v, want %v", c.l, op, c.r, got, want)
			}
		}
	}
}

// TestInSetThreeValued holds IN and NOT IN over a materialized set to
// the answer of the same set written as x = a OR x = b …: a hit is TRUE,
// a miss is NULL when the set held a NULL, and a NULL child meets
// nothing in a non-empty set.
func TestInSetThreeValued(t *testing.T) {
	tup := NewTuple(nil, nil)
	for _, c := range []struct {
		child     Value
		null      bool
		in, notIn Value
	}{
		{Int(1), false, Bool(true), Bool(false)},
		{Int(2), false, Bool(false), Bool(true)},
		{Int(1), true, Bool(true), Bool(false)},
		{Int(2), true, Null(), Null()},
		{Null(), false, Null(), Null()},
		{Null(), true, Null(), Null()},
	} {
		for negate, want := range map[bool]Value{false: c.in, true: c.notIn} {
			set := map[string]bool{Int(1).Key(): true, Int(3).Key(): true, Null().Key(): c.null}
			e := &InSet{Child: Const{c.child}, Set: set, Negate: negate}
			got := evalExpr(t, e, tup)
			if got.IsNull() != want.IsNull() || !got.IsNull() && !Equal(got, want) {
				t.Errorf("%s (null member %v) = %v, want %v", e, c.null, got, want)
			}
		}
	}
	// Over the empty set IN is FALSE and NOT IN TRUE, NULL child or not.
	for _, child := range []Value{Int(1), Null()} {
		for negate, want := range map[bool]bool{false: false, true: true} {
			e := &InSet{Child: Const{child}, Set: map[string]bool{}, Negate: negate}
			if got := evalExpr(t, e, tup); !Equal(got, Bool(want)) {
				t.Errorf("%s over the empty set = %v, want %v", e, got, want)
			}
		}
	}
}
