package relation

import (
	"sort"
)

// SortKey orders by one expression.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort materializes its input and emits it ordered by the keys (stable,
// so equal rows keep input order). Lineage passes through unchanged.
type Sort struct {
	Input Operator
	Keys  []SortKey

	materialized
}

// Schema implements Operator.
func (s *Sort) Schema() *Schema { return s.Input.Schema() }

// Open implements Operator.
func (s *Sort) Open(at int64) error {
	rows, err := RunAt(s.Input, at)
	if err != nil {
		return err
	}
	type keyed struct {
		t    *Tuple
		keys []Value
	}
	ks := make([]keyed, len(rows))
	for i, t := range rows {
		kv := make([]Value, len(s.Keys))
		for j, k := range s.Keys {
			v, err := k.Expr.Eval(t)
			if err != nil {
				return err
			}
			kv[j] = v
		}
		ks[i] = keyed{t: t, keys: kv}
	}
	var sortErr error
	sort.SliceStable(ks, func(i, j int) bool {
		for idx, k := range s.Keys {
			c, err := Compare(ks[i].keys[idx], ks[j].keys[idx])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.buffer = make([]*Tuple, len(ks))
	for i, k := range ks {
		s.buffer[i] = k.t
	}
	s.pos = 0
	return nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.buffer = nil
	return nil
}

// Rename re-qualifies the input schema with an alias; tuples pass through
// untouched.
type Rename struct {
	Input Operator
	Alias string

	out *Schema
}

// Schema implements Operator.
func (r *Rename) Schema() *Schema {
	if r.out == nil {
		r.out = r.Input.Schema().WithQualifier(r.Alias)
	}
	return r.out
}

// Open implements Operator.
func (r *Rename) Open(at int64) error { return r.Input.Open(at) }

// Next implements Operator.
func (r *Rename) Next() (*Tuple, error) { return r.Input.Next() }

// Close implements Operator.
func (r *Rename) Close() error { return r.Input.Close() }
