// Command pcqelint runs the PCQE static-invariant suite — five
// analyzers: confrange, ctxpoll, errdiscipline, txnmutate and
// sharedstate — over Go packages.
//
// Usage:
//
//	pcqelint [-list] [-json] [packages]
//
// With no package patterns it checks ./.... The exit status is 0 when
// the suite is clean, 1 when it reported diagnostics and 2 when the
// packages could not be loaded. -json writes the findings as a JSON
// array of {file, line, column, analyzer, message} objects (on stdout,
// even when empty) for CI problem matchers and editor integrations.
// Individual findings are suppressed with a trailing (or immediately
// preceding) comment, and every allow needs a justification after the
// analyzer name (a bare allow suppresses nothing):
//
//	//lint:allow confrange MaxP==0 is the "unset" sentinel, not a comparison
//
// See DESIGN.md §7 for what each analyzer guards and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pcqe/internal/analysis"
)

// jsonDiagnostic is the stable wire shape of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of plain text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pcqelint [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcqelint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcqelint: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, suite)
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "pcqelint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pcqelint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
