package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: fixture packages
// under testdata/src/<analyzer> carry `// want `regex`` comments on the
// lines where a diagnostic is expected. The test fails on a missing
// diagnostic, an unexpected diagnostic, or a message that does not
// match its regex. Clean and //lint:allow-suppressed shapes in the
// same fixtures are covered by the "no unexpected diagnostics" side.

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// expectation is one `// want` annotation.
type expectation struct {
	file string // basename
	line int
	re   *regexp.Regexp
	hit  bool
}

func runFixture(t *testing.T, pattern string, a *Analyzer) {
	t.Helper()
	pkgs, err := Load("testdata", pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", pattern)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, lineText := range strings.Split(string(src), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(lineText, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", name, i+1, m[1], err)
					}
					wants = append(wants, &expectation{file: base(name), line: i + 1, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want annotations; a failing fixture is required", pattern)
	}

	diags := Run(pkgs, []*Analyzer{a})
	var unexpected []string
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, d.String())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for _, d := range unexpected {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func base(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func TestConfrangeFixture(t *testing.T) {
	runFixture(t, "./src/confrange", Confrange())
}

func TestCtxpollFixture(t *testing.T) {
	runFixture(t, "./src/ctxpoll", Ctxpoll())
}

func TestErrdisciplineFixture(t *testing.T) {
	runFixture(t, "./src/errdiscipline", Errdiscipline())
}

func TestTxnmutateFixture(t *testing.T) {
	runFixture(t, "./src/txnmutate", Txnmutate())
}

func TestSharedstateFixture(t *testing.T) {
	runFixture(t, "./src/sharedstate", Sharedstate())
}

// TestScopeRestriction pins the Scope contract: a scoped analyzer skips
// packages outside its suffix list, at "/" boundaries.
func TestScopeRestriction(t *testing.T) {
	a := Ctxpoll("src/ctxpoll")
	if !a.inScope("fixture/src/ctxpoll") {
		t.Fatal("suffix match rejected")
	}
	if a.inScope("fixture/src/ctxpoll2") || a.inScope("fixture/src/xctxpoll") {
		t.Fatal("non-boundary suffix matched")
	}
	pkgs, err := Load("testdata", "./src/confrange")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(pkgs, []*Analyzer{Confrange("src/ctxpoll")}); len(diags) != 0 {
		t.Fatalf("out-of-scope package produced diagnostics: %v", diags)
	}
}

// TestSuppressionIsPerAnalyzer pins that //lint:allow only silences the
// named analyzers: the confrange fixture's suppressed sentinel is still
// visible to a differently-named analyzer reporting at the same line.
func TestSuppressionIsPerAnalyzer(t *testing.T) {
	pkgs, err := Load("testdata", "./src/confrange")
	if err != nil {
		t.Fatal(err)
	}
	probe := &Analyzer{
		Name: "probe",
		Doc:  "reports at every suppressed confrange site",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				pass.Reportf(f.Pos(), "package-level probe")
			}
			return nil
		},
	}
	diags := Run(pkgs, []*Analyzer{probe})
	if len(diags) != 1 {
		t.Fatalf("probe diagnostics = %v, want 1 (allow comments must not silence other analyzers)", diags)
	}
}

// TestAllowAttributionIsPerComment pins the suppression-scoping fix:
// when a trailing //lint:allow and a next-line //lint:allow merge into
// one comment group, each allow covers only from its own line down —
// the second comment must not reach back up and silence the first line
// for its analyzer. It also pins that a typo'd analyzer name is
// reported instead of silently suppressing nothing, and that an allow
// without a justification suppresses nothing.
func TestAllowAttributionIsPerComment(t *testing.T) {
	pkgs, err := Load("testdata", "./src/allowscope")
	if err != nil {
		t.Fatal(err)
	}
	probe := func(name string) *Analyzer {
		return &Analyzer{
			Name: name,
			Doc:  "reports every call statement",
			Run: func(pass *Pass) error {
				for _, f := range pass.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							pass.Reportf(call.Pos(), "call site")
						}
						return true
					})
				}
				return nil
			},
		}
	}
	diags := Run(pkgs, []*Analyzer{probe("probe1"), probe("probe2")})

	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s@%d", d.Analyzer, d.Pos.Line))
		if d.Analyzer == "probe1" && d.Pos.Line == 25 && !strings.HasSuffix(d.Message, "[//lint:allow probe1 requires a justification after the analyzer name]") {
			t.Errorf("bare allow: diagnostic %q lacks the justification hint", d.Message)
		}
	}
	// mark1() in shapes() sits on line 11 with a trailing allow for
	// probe1 only; the probe2 allow on line 12 covers mark2() on line 13
	// (and, via the merged group, so does probe1's). unknown()'s body
	// call on line 18 is uncovered for both probes, and the typo'd
	// nosuchcheck allow on line 17 is itself reported. bareAllow()'s
	// probe1 allow on line 24 has no justification, so mark1() on line
	// 25 is reported for both probes; justifiedAllow()'s on line 30
	// silences probe1 on line 31.
	want := []string{"lint-allow@17", "probe2@11", "probe1@18", "probe2@18", "probe1@25", "probe2@25", "probe2@31"}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("diagnostics = %v, want %v", got, want)
	}
}

// TestRepoIsLintClean runs the full suite over this repository — the
// same gate CI applies. A regression in any swept file (re-introducing
// an inline epsilon, dropping a checkpoint, %v-wrapping a typed error)
// fails here first.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Suite())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("pcqelint reports %d finding(s); run `go run ./cmd/pcqelint ./...` for details", len(diags))
	}
}

// TestSuiteShape pins the suite composition and scopes documented in DESIGN.md §7.
func TestSuiteShape(t *testing.T) {
	suite := Suite()
	want := map[string][]string{ // analyzer name → scope
		"confrange":     nil,
		"ctxpoll":       {"internal/strategy", "internal/lineage"},
		"errdiscipline": nil,
		"txnmutate":     nil,
		"sharedstate":   {"internal/core", "internal/sql", "internal/strategy", "internal/relation", "internal/server"},
	}
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for _, a := range suite {
		w, ok := want[a.Name]
		if !ok {
			t.Errorf("unexpected analyzer %q", a.Name)
			continue
		}
		if fmt.Sprint(a.Scope) != fmt.Sprint(w) {
			t.Errorf("%s scope = %v, want %v", a.Name, a.Scope, w)
		}
		if a.Doc == "" {
			t.Errorf("%s has no doc", a.Name)
		}
		if !KnownAnalyzerNames()[a.Name] {
			t.Errorf("%s missing from KnownAnalyzerNames", a.Name)
		}
	}
}
