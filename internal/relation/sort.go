package relation

import "sort"

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
	s.rows, s.pos = rowStore{w: s.Schema().Len()}, 0
	var in rowStore
	if err := drain(s.Input, at, &in); err != nil {
		return err
	}
	// perm is sorted, row r's keys are keys[r*n : (r+1)*n].
	n := len(s.Keys)
	keys, perm := make([]Value, in.n*n), make([]int, in.n)
	var t Tuple
	for r := range perm {
		t.Values, perm[r] = in.row(r), r
		for j, k := range s.Keys {
			v, err := k.Expr.Eval(&t)
			if err != nil {
				return err
			}
			keys[r*n+j] = v
		}
	}
	var sortErr error
	sort.SliceStable(perm, func(i, j int) bool {
		for idx, k := range s.Keys {
			c, err := Compare(keys[perm[i]*n+idx], keys[perm[j]*n+idx])
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
	for _, r := range perm {
		s.rows.add(in.row(r), *in.lin(r))
	}
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

func (r *Rename) next() (*batch, error) { return r.Input.next() }

// Close implements Operator.
func (r *Rename) Close() error { return r.Input.Close() }
