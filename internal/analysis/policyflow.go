package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Policyflow returns the policyflow analyzer: a call-graph taint pass
// over the engine proving that every function able to emit tuples to a
// caller-visible surface consulted the β policy filter first. The
// paper's compliance guarantee — no tuple below the policy threshold
// ever reaches a result — must hold on every disclosure path, not just
// the one the tests walk.
//
// Disclosure sites are (a) writes of rows into Response.Released (the
// released surface callers print and return) and (b) reads of
// Response.Withheld other than len() — withheld rows are confidential;
// aggregating or iterating them leaks what the filter held back (one
// withheld row's Max *is* its confidence). A site is compliant when its
// function can statically reach a policy Store.Threshold call
// (markTransitive over the package call graph, including method
// values, bound function fields and interface dispatch), or when every
// same-package caller is compliant (coveredByCallers — how propose()
// delegates the filter to EvaluateContext).
//
// Deliberate trusted-position exceptions take //lint:allow policyflow
// and MUST carry a justification string; a bare allow does not
// suppress.
func Policyflow(scope ...string) *Analyzer {
	return &Analyzer{
		Name:                 "policyflow",
		Doc:                  "every path emitting tuples into a Response (or reading withheld rows) passes the β policy filter first; allows require a justification",
		Scope:                scope,
		RequireJustification: true,
		Run:                  runPolicyflow,
	}
}

func runPolicyflow(pass *Pass) error {
	g := buildCallGraph(pass)
	marked := g.markTransitive(func(body *ast.BlockStmt) bool {
		return containsThresholdCall(pass, body)
	})
	covered := g.coveredByCallers(marked)

	for obj, fd := range g.decls {
		if covered[obj] {
			continue
		}
		checkDisclosureSites(pass, fd.Body)
	}
	return nil
}

// containsThresholdCall reports whether the body consults the β policy
// filter: a Threshold method call on a policy store type.
func containsThresholdCall(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Threshold" {
			return true
		}
		if t := pass.TypesInfo.TypeOf(sel.X); t != nil {
			if named, ok := deref(t).(*types.Named); ok && strings.Contains(named.Obj().Name(), "Store") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func checkDisclosureSites(pass *Pass, body *ast.BlockStmt) {
	// First sweep: selector reads that are structurally safe — len()
	// counts, assignment targets, and append-into-self grow patterns
	// (resp.Withheld = append(resp.Withheld, row) is the filter doing
	// its job, not a disclosure).
	safe := map[*ast.SelectorExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					safe[sel] = true
				}
			}
			for _, rhs := range n.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(pass, call, "append") && len(call.Args) > 0 {
					if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
						safe[sel] = true
					}
				}
			}
		case *ast.CallExpr:
			if isBuiltin(pass, n, "len") && len(n.Args) == 1 {
				if sel, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok {
					safe[sel] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if sel.Sel.Name == "Released" && namedTypeIs(pass.TypesInfo.TypeOf(sel.X), "Response") {
						pass.Reportf(n.Pos(), "Response.Released is written on a path that never consults the β policy filter (Store.Threshold); filter first, cover every caller, or take a justified //lint:allow policyflow")
					}
				}
			}
		case *ast.CompositeLit:
			if !namedTypeIs(pass.TypesInfo.TypeOf(n), "Response") {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Released" && !isNilLiteral(kv.Value) {
					pass.Reportf(kv.Pos(), "Response.Released is populated on a path that never consults the β policy filter (Store.Threshold); filter first, cover every caller, or take a justified //lint:allow policyflow")
				}
			}
		case *ast.SelectorExpr:
			if safe[n] || n.Sel.Name != "Withheld" {
				return true
			}
			if namedTypeIs(pass.TypesInfo.TypeOf(n.X), "Response") {
				pass.Reportf(n.Pos(), "Response.Withheld is read on a path that never consults the β policy filter; withheld rows are confidential (aggregates leak their confidences) — filter, count with len(), or take a justified //lint:allow policyflow")
			}
		}
		return true
	})
}

func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isNilLiteral(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// namedTypeIs reports whether t (after pointer deref) is a named type
// with the given name.
func namedTypeIs(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	named, ok := deref(t).(*types.Named)
	return ok && named.Obj().Name() == name
}
