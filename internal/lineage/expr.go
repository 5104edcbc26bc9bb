// Package lineage implements Boolean lineage expressions over base-tuple
// variables and exact probability computation under the independent-tuple
// semantics used by probabilistic databases (Trio-style).
//
// A lineage expression records how a derived (intermediate) query result
// was produced from base tuples: a join contributes a conjunction, a
// duplicate-eliminating projection or a union contributes a disjunction,
// and a negated subquery contributes a negation. Given a confidence
// (probability) for every base tuple, the confidence of the derived result
// is the probability that its lineage formula is true when each variable
// is an independent Bernoulli event.
package lineage

import (
	"fmt"
	"slices"
	"strconv"
)

// Var identifies a base tuple. Values are assigned by the caller (for the
// relational engine they are catalog-wide tuple identifiers).
type Var int

// Kind enumerates the node kinds of a lineage expression tree.
type Kind uint8

// Expression node kinds.
const (
	KindFalse Kind = iota // constant false (empty disjunction)
	KindTrue              // constant true (empty conjunction)
	KindVar               // a base-tuple variable
	KindNot               // negation of a single child
	KindAnd               // conjunction of children
	KindOr                // disjunction of children
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindFalse:
		return "false"
	case KindTrue:
		return "true"
	case KindVar:
		return "var"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Expr is an immutable lineage expression node. Construct expressions with
// the False, True, NewVar, Not, And and Or constructors; they apply local
// simplifications (unit laws, flattening) so that the shape stays small.
type Expr struct {
	kind     Kind
	v        Var     // valid when kind == KindVar
	children []*Expr // valid for KindNot (len 1), KindAnd, KindOr
}

var (
	exprFalse = &Expr{kind: KindFalse}
	exprTrue  = &Expr{kind: KindTrue}
)

// False returns the constant-false expression (lineage of an impossible
// result).
func False() *Expr { return exprFalse }

// True returns the constant-true expression (lineage of a certain result).
func True() *Expr { return exprTrue }

// NewVar returns the expression consisting of the single variable v.
func NewVar(v Var) *Expr { return &Expr{kind: KindVar, v: v} }

// Not returns the negation of e, simplifying constants and double
// negation.
func Not(e *Expr) *Expr {
	switch e.kind {
	case KindFalse:
		return exprTrue
	case KindTrue:
		return exprFalse
	case KindNot:
		return e.children[0]
	}
	return &Expr{kind: KindNot, children: []*Expr{e}}
}

// And returns the conjunction of es. Constant-true children are dropped, a
// constant-false child collapses the result, nested conjunctions are
// flattened, and zero children yield True.
func And(es ...*Expr) *Expr { return nary(KindAnd, es) }

// Or returns the disjunction of es. Constant-false children are dropped, a
// constant-true child collapses the result, nested disjunctions are
// flattened, and zero children yield False.
func Or(es ...*Expr) *Expr { return nary(KindOr, es) }

func nary(kind Kind, es []*Expr) *Expr {
	unit, zero := exprTrue, exprFalse
	if kind == KindOr {
		unit, zero = exprFalse, exprTrue
	}
	children := make([]*Expr, 0, len(es))
	for _, e := range es {
		if e == nil {
			continue
		}
		switch {
		case e.kind == unit.kind:
			// identity element: drop
		case e.kind == zero.kind:
			return zero
		case e.kind == kind:
			children = append(children, e.children...)
		default:
			children = append(children, e)
		}
	}
	switch len(children) {
	case 0:
		return unit
	case 1:
		return children[0]
	}
	return &Expr{kind: kind, children: children}
}

// OrFactored returns a formula equivalent to Or(es...) in which the
// conjunctions sharing a variable conjunct are grouped under it, and what
// is left of a group is factored the same way: (a ∧ s) ∨ (b ∧ s) becomes
// s ∧ (a ∨ b). A group of k operands takes s from k occurrences to one
// and moves no other variable, so no variable occurs more often than in
// Or(es...), and a DISTINCT over a hierarchical, self-join-free join
// comes out read-once. A bare variable joins no group, so nothing is
// absorbed and the formula keeps every variable of Or(es...). Without a
// conjunct two conjunctions share, the result is Or(es...). Equal inputs
// give equal formulas; es holds no nil.
func OrFactored(es ...*Expr) *Expr {
	if !slices.ContainsFunc(es, func(e *Expr) bool { return e.kind == KindAnd }) {
		return Or(es...)
	}
	// A conjunction joins the group of its most shared conjunct (the
	// first of equals) when another conjunction has that conjunct too.
	count, key, groups := map[Var]int{}, make([]*Expr, len(es)), map[Var][]*Expr{}
	for _, e := range es {
		for _, c := range conjuncts(e) {
			if c.kind == KindVar {
				count[c.v]++
			}
		}
	}
	for i, e := range es {
		for _, c := range conjuncts(e) {
			if c.kind == KindVar && count[c.v] > 1 && (key[i] == nil || count[c.v] > count[key[i].v]) {
				key[i] = c
			}
		}
		if k := key[i]; k != nil {
			if groups[k.v] == nil {
				groups[k.v] = make([]*Expr, 0, count[k.v])
			}
			groups[k.v] = append(groups[k.v], e)
		}
	}
	out := make([]*Expr, 0, len(es))
	for i, e := range es {
		if k := key[i]; k == nil || len(groups[k.v]) == 1 {
			out = append(out, e)
		} else if g := groups[k.v]; g != nil { // the group's first operand
			out, groups[k.v] = append(out, factorOut(g, k)), nil
		}
	}
	return Or(out...)
}

// conjuncts returns the children of a conjunction, nil for any other
// node. The slice is e's own; it must not be modified.
func conjuncts(e *Expr) []*Expr {
	if e.kind != KindAnd {
		return nil
	}
	return e.children
}

// factorOut returns c ∧ OrFactored(es with c taken out of each
// operand), es holding at least two conjunctions that all have c. It
// overwrites es, the group's own slice, with what is left of each.
func factorOut(es []*Expr, c *Expr) *Expr {
	for i, e := range es {
		k := slices.IndexFunc(e.children, func(x *Expr) bool { return x.kind == KindVar && x.v == c.v })
		if len(e.children) == 2 { // a join's two-way conjunction: the other side
			es[i] = e.children[1-k]
		} else {
			es[i] = And(slices.Concat(e.children[:k], e.children[k+1:])...)
		}
	}
	return And(c, OrFactored(es...))
}

// Kind reports the node kind of e.
func (e *Expr) Kind() Kind { return e.kind }

// Variable returns the variable of a KindVar node. It panics on other
// kinds; check Kind first.
func (e *Expr) Variable() Var {
	if e.kind != KindVar {
		panic("lineage: Variable called on " + e.kind.String() + " node")
	}
	return e.v
}

// Children returns the child expressions of e. The returned slice must not
// be modified.
func (e *Expr) Children() []*Expr { return e.children }

// IsConst reports whether e is a constant, and its value if so.
func (e *Expr) IsConst() (value, isConst bool) {
	switch e.kind {
	case KindTrue:
		return true, true
	case KindFalse:
		return false, true
	}
	return false, false
}

// Vars returns the sorted set of distinct variables occurring in e.
func (e *Expr) Vars() []Var { return slices.Compact(e.sortedOccurrences(nil)) }

// sortedOccurrences appends every variable occurrence in e to dst and
// sorts them: a per-row classification needs no map.
func (e *Expr) sortedOccurrences(dst []Var) []Var {
	e.WalkVars(func(v Var) { dst = append(dst, v) })
	slices.Sort(dst)
	return dst
}

// WalkVars calls f for every variable occurrence in e, in formula
// order, without allocating: the check-every-variable loops (instance
// validation) need neither the set nor its order.
func (e *Expr) WalkVars(f func(Var)) {
	switch e.kind {
	case KindVar:
		f(e.v)
	case KindNot, KindAnd, KindOr:
		for _, c := range e.children {
			c.WalkVars(f)
		}
	}
}

// ReadOnce reports whether every variable occurs at most once in e. Such
// formulas admit linear-time exact probability evaluation.
func (e *Expr) ReadOnce() bool {
	var buf [16]Var
	vs := e.sortedOccurrences(buf[:0])
	for i := 1; i < len(vs); i++ {
		if vs[i] == vs[i-1] {
			return false
		}
	}
	return true
}

// Eval evaluates e as a Boolean formula under the given truth assignment.
// Variables absent from the map are treated as false.
func (e *Expr) Eval(assign map[Var]bool) bool {
	switch e.kind {
	case KindFalse:
		return false
	case KindTrue:
		return true
	case KindVar:
		return assign[e.v]
	case KindNot:
		return !e.children[0].Eval(assign)
	case KindAnd:
		for _, c := range e.children {
			if !c.Eval(assign) {
				return false
			}
		}
		return true
	case KindOr:
		for _, c := range e.children {
			if c.Eval(assign) {
				return true
			}
		}
		return false
	}
	panic("lineage: bad kind")
}

// String renders e in a compact infix form, e.g. "((t2 | t3) & t13)".
// Rendering into a stack buffer leaves one allocation, the string: the
// confidence cache keys every result row by it.
func (e *Expr) String() string {
	var buf [64]byte
	return string(e.format(buf[:0]))
}

func (e *Expr) format(b []byte) []byte {
	switch e.kind {
	case KindFalse:
		b = append(b, "⊥"...)
	case KindTrue:
		b = append(b, "⊤"...)
	case KindVar:
		b = strconv.AppendInt(append(b, 't'), int64(e.v), 10)
	case KindNot:
		b = e.children[0].format(append(b, '!'))
	case KindAnd, KindOr:
		sep := " & "
		if e.kind == KindOr {
			sep = " | "
		}
		b = append(b, '(')
		for i, c := range e.children {
			if i > 0 {
				b = append(b, sep...)
			}
			b = c.format(b)
		}
		b = append(b, ')')
	}
	return b
}

// Substitute returns e with every occurrence of v replaced by the constant
// value, simplifying as it rebuilds.
func (e *Expr) Substitute(v Var, value bool) *Expr {
	switch e.kind {
	case KindFalse, KindTrue:
		return e
	case KindVar:
		if e.v != v {
			return e
		}
		if value {
			return exprTrue
		}
		return exprFalse
	case KindNot:
		return Not(e.children[0].Substitute(v, value))
	case KindAnd, KindOr:
		children := make([]*Expr, len(e.children))
		for i, c := range e.children {
			children[i] = c.Substitute(v, value)
		}
		return nary(e.kind, children)
	}
	panic("lineage: bad kind")
}
