package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ConfidencePolicy is the paper's Definition 1: a user under Role issuing
// a query for Purpose may access only results with confidence strictly
// greater than Beta.
type ConfidencePolicy struct {
	Role    string
	Purpose string
	Beta    float64
}

// String renders the policy in the paper's ⟨role, purpose, β⟩ form.
func (p ConfidencePolicy) String() string {
	return fmt.Sprintf("⟨%s, %s, %g⟩", p.Role, p.Purpose, p.Beta)
}

// Store holds confidence policies and answers effective-threshold
// queries against an RBAC model and a purpose tree.
type Store struct {
	rbac     *RBAC
	purposes *PurposeTree
	policies []ConfidencePolicy
}

// NewStore creates a policy store bound to the given RBAC model and
// purpose tree.
func NewStore(rbac *RBAC, purposes *PurposeTree) *Store {
	return &Store{rbac: rbac, purposes: purposes}
}

// NewStoreFromSpecs builds a store, with its RBAC model and purpose
// tree, from the textual specs the command-line tools take: each policy
// is "role:purpose:beta", each assignment "user=role". Roles and
// purposes come into existence on first mention (purposes directly
// under the root).
func NewStoreFromSpecs(policies, assignments []string) (*Store, error) {
	rbac, purposes := NewRBAC(), NewPurposeTree()
	store := NewStore(rbac, purposes)
	for _, spec := range policies {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -policy %q, want role:purpose:beta", spec)
		}
		beta, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -policy threshold %q: %w", parts[2], err)
		}
		rbac.AddRole(parts[0])
		if parts[1] != Root && !purposes.Has(parts[1]) {
			if err := purposes.Add(parts[1], ""); err != nil {
				return nil, err
			}
		}
		if err := store.Add(ConfidencePolicy{Role: parts[0], Purpose: parts[1], Beta: beta}); err != nil {
			return nil, err
		}
	}
	for _, spec := range assignments {
		u, r, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -role %q, want user=role", spec)
		}
		rbac.AddRole(r)
		if err := rbac.AssignUser(u, r); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// RBAC returns the store's RBAC model.
func (s *Store) RBAC() *RBAC { return s.rbac }

// Purposes returns the store's purpose tree.
func (s *Store) Purposes() *PurposeTree { return s.purposes }

// Add validates and records a policy. Role and purpose must exist and
// β must lie in [0, 1).
func (s *Store) Add(p ConfidencePolicy) error {
	if !s.rbac.HasRole(p.Role) {
		return fmt.Errorf("policy: unknown role %q", p.Role)
	}
	if !s.purposes.Has(p.Purpose) {
		return fmt.Errorf("policy: unknown purpose %q", p.Purpose)
	}
	if p.Beta < 0 || p.Beta >= 1 {
		return fmt.Errorf("policy: threshold %g outside [0,1)", p.Beta)
	}
	p.Role = norm(p.Role)
	p.Purpose = norm(p.Purpose)
	s.policies = append(s.policies, p)
	return nil
}

// Policies returns all stored policies sorted by role, purpose, beta.
func (s *Store) Policies() []ConfidencePolicy {
	out := append([]ConfidencePolicy{}, s.policies...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		if out[i].Purpose != out[j].Purpose {
			return out[i].Purpose < out[j].Purpose
		}
		return out[i].Beta < out[j].Beta
	})
	return out
}

// Applicable returns the policies that apply when the given user queries
// for the given purpose: the policy's role must be one the user acts
// under, and the policy's purpose must cover the query purpose.
func (s *Store) Applicable(user, purpose string) []ConfidencePolicy {
	var out []ConfidencePolicy
	for _, p := range s.policies {
		if !s.rbac.UserHasRole(user, p.Role) {
			continue
		}
		if !s.purposes.Covers(p.Purpose, purpose) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Threshold computes the effective confidence threshold for a user and
// purpose: the maximum β over all applicable policies (every applicable
// policy must be satisfied). ok is false when no policy applies — the
// caller decides whether that means "allow everything" (open) or "deny"
// (closed); the paper's system is open by default.
func (s *Store) Threshold(user, purpose string) (beta float64, ok bool) {
	app := s.Applicable(user, purpose)
	if len(app) == 0 {
		return 0, false
	}
	for _, p := range app {
		if p.Beta > beta {
			beta = p.Beta
		}
	}
	return beta, true
}
