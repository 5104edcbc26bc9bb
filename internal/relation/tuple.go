package relation

import (
	"strings"

	"pcqe/internal/lineage"
)

// Tuple is a row. Base tuples (rows stored in a table) carry their own
// lineage variable and confidence; derived tuples produced by operators
// carry a lineage expression over base-tuple variables, from which their
// confidence is computed on demand.
type Tuple struct {
	Values  []Value
	Lineage *lineage.Expr

	priced *priced // set by RunAt for a row its plan priced
}

// priced is lineage of's confidence p at committed version at.
type priced struct {
	p  float64
	at int64
	of *lineage.Expr
}

// Priced returns the confidence at committed version at that the plan
// computed for Lineage (a GroupJoin over two tables does), bit-equal to
// lineage.Prob; false when it computed none there for this Lineage.
func (t *Tuple) Priced(at int64) (float64, bool) {
	if t.priced == nil || t.priced.of != t.Lineage || t.priced.at != at {
		return 0, false
	}
	return t.priced.p, true
}

// NewTuple builds a derived tuple with the given lineage.
func NewTuple(values []Value, lin *lineage.Expr) *Tuple {
	if lin == nil {
		lin = lineage.True()
	}
	return &Tuple{Values: values, Lineage: lin}
}

// Key renders the values as one string, each value's Key followed by
// a 0x1f separator. It orders rows (core breaks confidence ties with
// it); operators match rows by their values themselves (groups).
func (t *Tuple) Key() string {
	var b strings.Builder
	for _, v := range t.Values {
		b.WriteString(v.Key())
		b.WriteByte(0x1f)
	}
	return b.String()
}

// Clone returns a copy of the tuple with a copied value slice (the
// lineage expression is immutable and shared).
func (t *Tuple) Clone() *Tuple {
	vals := make([]Value, len(t.Values))
	copy(vals, t.Values)
	return &Tuple{Values: vals, Lineage: t.Lineage}
}

// String renders the tuple values separated by commas.
func (t *Tuple) String() string {
	parts := make([]string, len(t.Values))
	for i, v := range t.Values {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
