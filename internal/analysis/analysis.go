// Package analysis is a small, dependency-free reimplementation of the
// go/analysis driver model (golang.org/x/tools is not vendored here) plus
// the pcqelint suite: five analyzers that enforce PCQE's cross-cutting
// invariants — confidence-range discipline, solver checkpoint polling,
// typed-error handling, transactional mutation and shared-state freedom.
// The framework mirrors the upstream shape (Analyzer, Pass, Diagnostic)
// closely enough that the analyzers could be ported to real go/analysis
// by swapping this file and load.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check. Unlike upstream go/analysis there are no
// facts or result dependencies: each analyzer is a pure function of one
// type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Scope restricts the analyzer to packages whose import path ends
	// with one of these suffixes (a "/"-boundary match). Empty = every
	// package.
	Scope []string
	// Run reports diagnostics for one package through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives diagnostics that survived suppression.
	report func(Diagnostic)
	// allow maps "file:line" to the analyzers a //lint:allow names on
	// that line, each with whether the comment carried a justification.
	allow map[string]map[string]bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// suppression states for one diagnostic position.
const (
	allowNone        = iota // no matching allow: report
	allowUnjustified        // matching allow lacks a justification: report, with a hint
	allowSuppressed         // matching, justified allow: drop
)

// Reportf records a diagnostic at pos unless a //lint:allow comment
// covering the same line or the line immediately above suppresses it.
// An allow suppresses only when it carries a justification, for every
// analyzer alike; a bare one leaves the diagnostic reported with a note
// naming the missing justification.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	switch p.suppression(position) {
	case allowSuppressed:
		return
	case allowUnjustified:
		msg += fmt.Sprintf(" [//lint:allow %s requires a justification after the analyzer name]", p.Analyzer.Name)
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  msg,
	})
}

func (p *Pass) suppression(pos token.Position) int {
	state := allowNone
	for _, line := range []int{pos.Line, pos.Line - 1} {
		set := p.allow[fmt.Sprintf("%s:%d", pos.Filename, line)]
		for _, name := range []string{p.Analyzer.Name, "all"} {
			justified, ok := set[name]
			if !ok {
				continue
			}
			if justified {
				return allowSuppressed
			}
			state = allowUnjustified
		}
	}
	return state
}

// allowRe matches suppression comments: //lint:allow name1,name2 [reason].
// The first whitespace-separated field after lint:allow is the
// comma-separated analyzer list; everything after it is a free-form
// justification.
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_,\-]+)(?:\s+(.*))?$`)

// collectAllows indexes every //lint:allow comment by file:line. Each
// allow comment covers diagnostics from its own line through the line
// directly below its comment group (trailing comment, or a standalone
// comment — possibly with a multi-line justification continuing the
// group — above the statement). Attribution is per comment, not per
// group: an allow never reaches lines above itself, so one group
// holding allows for several analyzers cannot cross-silence earlier
// lines. Names not in known are reported instead of indexed — a typo'd
// analyzer name suppresses nothing and must not pass silently.
func collectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) (map[string]map[string]bool, []Diagnostic) {
	allow := map[string]map[string]bool{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			end := fset.Position(cg.End())
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				justified := strings.TrimSpace(m[2]) != ""
				pos := fset.Position(c.Pos())
				for _, n := range strings.Split(m[1], ",") {
					n = strings.TrimSpace(n)
					if n == "" {
						continue
					}
					if known != nil && !known[n] {
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: "lint-allow",
							Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q; the suppression has no effect", n),
						})
						continue
					}
					for line := pos.Line; line <= end.Line+1; line++ {
						key := fmt.Sprintf("%s:%d", pos.Filename, line)
						set := allow[key]
						if set == nil {
							set = map[string]bool{}
							allow[key] = set
						}
						set[n] = set[n] || justified
					}
				}
			}
		}
	}
	return allow, bad
}

// inScope reports whether a package import path matches the analyzer's
// Scope. Suffixes match at "/" boundaries: "internal/strategy" matches
// "pcqe/internal/strategy" but not "pcqe/internal/strategy2".
func (a *Analyzer) inScope(path string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, suf := range a.Scope {
		if suffixMatch(path, suf) {
			return true
		}
	}
	return false
}

func suffixMatch(path, suf string) bool {
	return path == suf || strings.HasSuffix(path, "/"+suf)
}

// Run applies the analyzers to the loaded packages and returns all
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// Valid suppression targets: the analyzers in this run, the full
	// suite (a scoped run must not flag another analyzer's allows as
	// unknown), and the "all" wildcard.
	known := KnownAnalyzerNames()
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow, bad := collectAllows(pkg.Fset, pkg.Files, known)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			if !a.inScope(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				allow:     allow,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Pos:      token.Position{Filename: pkg.Path},
					Analyzer: a.Name,
					Message:  fmt.Sprintf("analyzer failed: %v", err),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
