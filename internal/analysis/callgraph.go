package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// callGraph is the package-local static call graph. Nodes are function
// declarations plus function literals bound to a local variable
// (`gainOf := func(...) {...}`), a package-level var, or a
// function-typed struct field (`s.fn = func(...) {...}`, `T{fn: ...}`),
// keyed by types.Object identity. Method values (`f := x.Solve`) alias
// the variable to the method, and calls through an interface method
// fan out to every same-package concrete implementation (a class
// hierarchy analysis). Calls that remain unresolvable are not edges —
// the analyzers that use this accept the under-approximation and
// provide //lint:allow as the escape hatch.
type callGraph struct {
	bodies  map[types.Object]*ast.BlockStmt
	callees map[types.Object][]types.Object
	decls   map[types.Object]*ast.FuncDecl
	// aliases maps a function-typed variable or field to the declared
	// function or method it was bound to (`f := x.Solve`).
	aliases map[types.Object]types.Object
}

// buildCallGraph indexes every function declaration and bound function
// literal in the pass's package, and the same-package calls each body
// makes — direct, through bound variables/fields, and through
// interface dispatch to local implementations.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{
		bodies:  map[types.Object]*ast.BlockStmt{},
		callees: map[types.Object][]types.Object{},
		decls:   map[types.Object]*ast.FuncDecl{},
		aliases: map[types.Object]types.Object{},
	}
	// Pass 1: register declared functions and package-level function
	// literals, so later binding passes can alias into them regardless
	// of declaration order.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				if obj := pass.TypesInfo.Defs[d.Name]; obj != nil {
					g.bodies[obj] = d.Body
					g.decls[obj] = d
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i >= len(vs.Values) {
							break
						}
						if lit, ok := vs.Values[i].(*ast.FuncLit); ok {
							if obj := pass.TypesInfo.Defs[name]; obj != nil {
								g.bodies[obj] = lit.Body
							}
						}
					}
				}
			}
		}
	}
	// Pass 2: bind literals and method/function values reached through
	// assignments and composite literals inside declared bodies.
	// Reassigned targets keep their first binding — good enough for the
	// lint use case.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break
						}
						target := bindTarget(pass, lhs)
						if target == nil {
							continue
						}
						g.bind(target, pass, n.Rhs[i])
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if field, ok := pass.TypesInfo.Uses[key].(*types.Var); ok {
							g.bind(field, pass, kv.Value)
						}
					}
				}
				return true
			})
		}
	}
	// Pass 3: edges.
	for obj, body := range g.bodies {
		seen := map[types.Object]bool{}
		caller := obj
		addEdge := func(callee types.Object) {
			if callee == nil || callee == caller || seen[callee] {
				return
			}
			if _, local := g.bodies[callee]; !local {
				return
			}
			seen[callee] = true
			g.callees[caller] = append(g.callees[caller], callee)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeObject(pass, call)
			if callee == nil {
				return true
			}
			if target, ok := g.aliases[callee]; ok {
				callee = target
			}
			if f, ok := callee.(*types.Func); ok {
				if impls := g.interfaceImpls(f); impls != nil {
					for _, impl := range impls {
						addEdge(impl)
					}
					return true
				}
			}
			addEdge(callee)
			return true
		})
	}
	return g
}

// bindTarget resolves an assignment LHS to a bindable object: a local
// or package variable, or a struct field selected on any expression.
func bindTarget(pass *Pass, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Defs[lhs]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Uses[lhs]
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[lhs.Sel].(*types.Var); ok {
			return obj
		}
	}
	return nil
}

// bind records what a variable or field holds: a function literal's
// body, or an alias to a declared function/method (a method value or a
// plain function value).
func (g *callGraph) bind(target types.Object, pass *Pass, rhs ast.Expr) {
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.FuncLit:
		if _, seen := g.bodies[target]; !seen {
			g.bodies[target] = rhs.Body
		}
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[rhs].(*types.Func); ok {
			if _, seen := g.aliases[target]; !seen {
				g.aliases[target] = f
			}
		}
	case *ast.SelectorExpr:
		if f, ok := pass.TypesInfo.Uses[rhs.Sel].(*types.Func); ok {
			if _, seen := g.aliases[target]; !seen {
				g.aliases[target] = f
			}
		}
	}
}

// calleeObject resolves the called function (or function-typed
// variable/field) of a call expression, or nil for builtins,
// conversions and unresolvable dynamic calls.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pass.TypesInfo.Uses[fun].(type) {
		case *types.Func:
			return obj
		case *types.Var:
			return obj
		}
	case *ast.SelectorExpr:
		switch obj := pass.TypesInfo.Uses[fun.Sel].(type) {
		case *types.Func:
			return obj
		case *types.Var:
			// A function-typed field or qualified package var.
			return obj
		}
	}
	return nil
}

// interfaceImpls expands an interface method to the same-package
// concrete methods that can be behind it: every declared method with
// the same name whose receiver type (or its pointer) implements the
// interface. Returns nil when f is not an interface method.
func (g *callGraph) interfaceImpls(f *types.Func) []types.Object {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	impls := []types.Object{}
	for obj := range g.bodies {
		m, ok := obj.(*types.Func)
		if !ok || m.Name() != f.Name() {
			continue
		}
		msig, ok := m.Type().(*types.Signature)
		if !ok || msig.Recv() == nil {
			continue
		}
		recv := msig.Recv().Type()
		if types.Implements(recv, iface) {
			impls = append(impls, obj)
			continue
		}
		if _, isPtr := recv.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(recv), iface) {
			impls = append(impls, obj)
		}
	}
	return impls
}

// markTransitive computes the least fixpoint of "direct(body) or body
// calls a marked function": the set of functions from which a
// property-bearing call is statically reachable through same-package
// calls.
func (g *callGraph) markTransitive(direct func(body *ast.BlockStmt) bool) map[types.Object]bool {
	marked := map[types.Object]bool{}
	for obj, body := range g.bodies {
		if direct(body) {
			marked[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj := range g.bodies {
			if marked[obj] {
				continue
			}
			for _, callee := range g.callees[obj] {
				if marked[callee] {
					marked[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return marked
}
