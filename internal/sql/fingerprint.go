package sql

import (
	"strings"

	"pcqe/internal/relation"
)

// Fingerprinting for the plan cache: a statement's fingerprint is its
// AST rendered with identifiers case-folded and every literal replaced
// by a placeholder, plus the literal values collected in order. Two
// texts of the same query — different whitespace, keyword or identifier
// case — share one fingerprint shape; the cache key appends the literal
// values so each parameterization caches its own (already-bound) plan.

// fingerprintStmt renders the statement's normalized shape and collects
// its literals in encounter order.
func fingerprintStmt(stmt *SelectStmt) (string, []relation.Value) {
	var lits []relation.Value
	shape := renderStmt(stmt, true, &lits)
	return shape, lits
}

// cacheKey is the full plan-cache key: shape plus bound literal keys.
func cacheKey(shape string, lits []relation.Value) string {
	var b strings.Builder
	b.WriteString(shape)
	b.WriteString("\x00")
	for _, v := range lits {
		b.WriteString("\x1f")
		b.WriteString(v.Key())
	}
	return b.String()
}

// stmtTreeReferencesConfidence reports whether the statement — or any
// nested subquery — mentions the _confidence pseudo-column. Plans for
// such statements can bake confidence-dependent values in (materialized
// IN-subqueries), so the cache must also invalidate them on confidence
// epoch changes, not just catalog version changes.
func stmtTreeReferencesConfidence(s *SelectStmt) bool {
	for ; s != nil; s = s.Next {
		if stmtReferencesConfidence(s) {
			return true
		}
		for _, tr := range fromTables(s) {
			if tr.Sub != nil && stmtTreeReferencesConfidence(tr.Sub) {
				return true
			}
		}
		for _, e := range blockExprs(s) {
			found := false
			walkExpr(e, func(n ExprNode) {
				in, ok := n.(*InExpr)
				found = found || ok && in.Sub != nil && stmtTreeReferencesConfidence(in.Sub)
			})
			if found {
				return true
			}
		}
	}
	return false
}
