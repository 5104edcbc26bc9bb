package relation

import (
	"fmt"
	"strings"
)

// Expr is a scalar expression evaluated against a tuple of a known
// schema. The SQL planner compiles WHERE/SELECT expressions into this
// representation; predicates are expressions producing BOOLEAN.
type Expr interface {
	// Eval computes the expression over the tuple.
	Eval(t *Tuple) (Value, error)
	// Type reports the static result type (TypeNull when unknown).
	Type() Type
	// String renders the expression.
	String() string
}

// ColRef reads column Index of the input tuple.
type ColRef struct {
	Index int
	Col   Column
}

// NewColRef resolves the reference against the schema.
func NewColRef(s *Schema, qualifier, name string) (*ColRef, error) {
	idx, err := s.Resolve(qualifier, name)
	if err != nil {
		return nil, err
	}
	return &ColRef{Index: idx, Col: s.Columns[idx]}, nil
}

// Eval implements Expr.
func (c *ColRef) Eval(t *Tuple) (Value, error) {
	if c.Index < 0 || c.Index >= len(t.Values) {
		return Value{}, fmt.Errorf("relation: column index %d out of range", c.Index)
	}
	return t.Values[c.Index], nil
}

// Type implements Expr.
func (c *ColRef) Type() Type { return c.Col.Type }

func (c *ColRef) String() string { return c.Col.QualifiedName() }

// Const is a literal value.
type Const struct{ Value Value }

// Eval implements Expr.
func (c Const) Eval(*Tuple) (Value, error) { return c.Value, nil }

// Type implements Expr.
func (c Const) Type() Type { return c.Value.Type() }

func (c Const) String() string {
	if c.Value.Type() == TypeString {
		return "'" + c.Value.String() + "'"
	}
	return c.Value.String()
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Binary applies a binary operator. Comparisons and logic produce
// BOOLEAN; arithmetic follows SQL numeric promotion (INT op INT = INT
// except division, otherwise REAL). NULL operands propagate NULL, except
// where the other operand decides AND or OR.
type Binary struct {
	Op          BinaryOp
	Left, Right Expr
}

// Eval implements Expr.
func (b *Binary) Eval(t *Tuple) (Value, error) {
	l, err := b.Left.Eval(t)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logic operators (three-valued where needed).
	switch b.Op {
	case OpAnd:
		if lb, ok := l.AsBool(); ok && !lb {
			return Bool(false), nil
		}
	case OpOr:
		if lb, ok := l.AsBool(); ok && lb {
			return Bool(true), nil
		}
	}
	r, err := b.Right.Eval(t)
	if err != nil {
		return Value{}, err
	}
	switch b.Op {
	case OpAnd, OpOr:
		return evalLogic(b.Op, l, r)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return evalComparison(b.Op, l, r)
	default:
		return evalArithmetic(b.Op, l, r)
	}
}

// evalLogic is SQL's three-valued AND and OR: FALSE decides AND and
// TRUE decides OR from either side, and the result is NULL only when
// neither side decides and one of them is NULL.
func evalLogic(op BinaryOp, l, r Value) (Value, error) {
	lb, lok := l.AsBool()
	rb, rok := r.AsBool()
	if !lok && !l.IsNull() || !rok && !r.IsNull() {
		return Value{}, fmt.Errorf("relation: %s requires boolean operands, got %s and %s", op, l.Type(), r.Type())
	}
	decides := op == OpOr
	switch {
	case lok && lb == decides || rok && rb == decides:
		return Bool(decides), nil
	case !lok || !rok:
		return Null(), nil
	}
	return Bool(!decides), nil
}

func evalComparison(op BinaryOp, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	c, err := Compare(l, r)
	if err != nil {
		return Value{}, err
	}
	return Bool(opHolds(op, c)), nil
}

// opHolds applies a comparison operator to a three-way Compare result.
func opHolds(op BinaryOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	panic("relation: bad comparison op")
}

func evalArithmetic(op BinaryOp, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	if l.Type() == TypeInt && r.Type() == TypeInt && op != OpDiv {
		li, _ := l.AsInt()
		ri, _ := r.AsInt()
		switch op {
		case OpAdd:
			return Int(li + ri), nil
		case OpSub:
			return Int(li - ri), nil
		case OpMul:
			return Int(li * ri), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return Value{}, fmt.Errorf("relation: %s requires numeric operands, got %s and %s", op, l.Type(), r.Type())
	}
	switch op {
	case OpAdd:
		return Float(lf + rf), nil
	case OpSub:
		return Float(lf - rf), nil
	case OpMul:
		return Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return Null(), nil // SQL-style: division by zero yields NULL here
		}
		return Float(lf / rf), nil
	}
	panic("relation: bad arithmetic op")
}

// Type implements Expr.
func (b *Binary) Type() Type {
	switch b.Op {
	case OpAnd, OpOr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return TypeBool
	case OpDiv:
		return TypeFloat
	default:
		if b.Left.Type() == TypeInt && b.Right.Type() == TypeInt {
			return TypeInt
		}
		return TypeFloat
	}
}

func (b *Binary) String() string {
	return "(" + b.Left.String() + " " + b.Op.String() + " " + b.Right.String() + ")"
}

// UnaryOp enumerates unary operators.
type UnaryOp uint8

// Unary operators.
const (
	OpNot UnaryOp = iota
	OpNeg
	OpIsNull
	OpIsNotNull
)

// Unary applies a unary operator.
type Unary struct {
	Op    UnaryOp
	Child Expr
}

// Eval implements Expr.
func (u *Unary) Eval(t *Tuple) (Value, error) {
	v, err := u.Child.Eval(t)
	if err != nil {
		return Value{}, err
	}
	switch u.Op {
	case OpNot:
		if v.IsNull() {
			return Null(), nil
		}
		b, ok := v.AsBool()
		if !ok {
			return Value{}, fmt.Errorf("relation: NOT requires boolean, got %s", v.Type())
		}
		return Bool(!b), nil
	case OpNeg:
		if v.IsNull() {
			return Null(), nil
		}
		switch v.Type() {
		case TypeInt:
			i, _ := v.AsInt()
			return Int(-i), nil
		case TypeFloat:
			f, _ := v.AsFloat()
			return Float(-f), nil
		}
		return Value{}, fmt.Errorf("relation: cannot negate %s", v.Type())
	case OpIsNull:
		return Bool(v.IsNull()), nil
	case OpIsNotNull:
		return Bool(!v.IsNull()), nil
	}
	panic("relation: bad unary op")
}

// Type implements Expr.
func (u *Unary) Type() Type {
	switch u.Op {
	case OpNeg:
		return u.Child.Type()
	default:
		return TypeBool
	}
}

func (u *Unary) String() string {
	switch u.Op {
	case OpNot:
		return "NOT " + u.Child.String()
	case OpNeg:
		return "-" + u.Child.String()
	case OpIsNull:
		return u.Child.String() + " IS NULL"
	default:
		return u.Child.String() + " IS NOT NULL"
	}
}

// Like matches a string against a SQL LIKE pattern (% and _ wildcards).
type Like struct {
	Child   Expr
	Pattern string
	Negate  bool
}

// Eval implements Expr.
func (l *Like) Eval(t *Tuple) (Value, error) {
	v, err := l.Child.Eval(t)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return Null(), nil
	}
	s, ok := v.AsString()
	if !ok {
		return Value{}, fmt.Errorf("relation: LIKE requires text, got %s", v.Type())
	}
	m := likeMatch(strings.ToLower(s), strings.ToLower(l.Pattern))
	if l.Negate {
		m = !m
	}
	return Bool(m), nil
}

// Type implements Expr.
func (l *Like) Type() Type { return TypeBool }

func (l *Like) String() string {
	op := " LIKE "
	if l.Negate {
		op = " NOT LIKE "
	}
	return l.Child.String() + op + "'" + l.Pattern + "'"
}

// likeMatch implements LIKE with memoized recursion over pattern/input
// positions.
func likeMatch(s, pat string) bool {
	// Iterative two-pointer algorithm with backtracking on '%'.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// EvalBool evaluates a predicate and reports whether it is definitely
// true (SQL three-valued logic: NULL counts as not-true).
func EvalBool(e Expr, t *Tuple) (bool, error) {
	v, err := e.Eval(t)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	b, ok := v.AsBool()
	if !ok {
		return false, fmt.Errorf("relation: predicate evaluated to %s, want boolean", v.Type())
	}
	return b, nil
}
