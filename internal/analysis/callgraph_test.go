package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// loadSinglePackage loads one fixture package and wraps it in a Pass
// for direct call-graph construction.
func loadSinglePackage(t *testing.T, pattern string) *Pass {
	t.Helper()
	pkgs, err := Load("testdata", pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s matched %d packages, want 1", pattern, len(pkgs))
	}
	pkg := pkgs[0]
	return &Pass{
		Analyzer:  &Analyzer{Name: "test"},
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
	}
}

// graphObjects maps fixture function names (methods qualified as
// Recv.Name) to their call-graph objects.
func graphObjects(g *callGraph) map[string]types.Object {
	m := map[string]types.Object{}
	for obj, fd := range g.decls {
		name := fd.Name.Name
		if r := receiverTypeName(fd); r != "" {
			name = r + "." + name
		}
		m[name] = obj
	}
	return m
}

// TestCallGraphResolution pins the binding shapes buildCallGraph must
// resolve: direct calls, method values, interface dispatch (CHA over
// same-package implementations), and function-typed fields bound via
// composite literal or assignment. markTransitive must reach sentinel()
// through every one of them.
func TestCallGraphResolution(t *testing.T) {
	pass := loadSinglePackage(t, "./src/callgraph")
	g := buildCallGraph(pass)
	objs := graphObjects(g)

	callsSentinel := func(body *ast.BlockStmt) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sentinel" {
					found = true
				}
			}
			return !found
		})
		return found
	}
	marked := g.markTransitive(callsSentinel)

	wantMarked := map[string]bool{
		"plain":            true,  // direct call
		"Greedy.Solve":     true,  // direct call from a method body
		"viaInterface":     true,  // interface dispatch to Greedy.Solve
		"viaMethodValue":   true,  // f := g.Solve; f()
		"viaField":         true,  // runner{fn: func(){...sentinel...}}; r.fn()
		"viaAssignedField": true,  // p.step = plain; p.step() — alias edge
		"sentinel":         false, // its own body makes no sentinel call
		"helper":           false,
		"orphan":           false,
		"Exact.Solve":      false,
	}
	for name, want := range wantMarked {
		obj, ok := objs[name]
		if !ok {
			t.Fatalf("fixture function %s not registered in the call graph", name)
		}
		if marked[obj] != want {
			t.Errorf("marked[%s] = %v, want %v", name, marked[obj], want)
		}
	}

	// Interface dispatch fans out to every same-package implementation,
	// value and pointer receiver alike.
	byObj := map[types.Object]string{}
	for name, obj := range objs {
		byObj[obj] = name
	}
	fanout := map[string]bool{}
	for _, c := range g.callees[objs["viaInterface"]] {
		fanout[byObj[c]] = true
	}
	if !fanout["Greedy.Solve"] || !fanout["Exact.Solve"] || len(fanout) != 2 {
		t.Errorf("viaInterface callees = %v, want {Greedy.Solve, Exact.Solve}", fanout)
	}
}
