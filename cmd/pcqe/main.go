// Command pcqe is a small policy-compliant query shell: it loads CSV
// tables (with per-row confidence and cost columns), installs confidence
// policies, and evaluates SQL queries the way the PCQE framework does —
// computing result confidences from lineage, filtering by the policy for
// the given user and purpose, and proposing minimum-cost confidence
// improvements when too few rows survive.
//
// Usage:
//
//	pcqe -table Name=file.csv [-table ...] \
//	     -role user=role [-role ...] \
//	     -policy role:purpose:beta [-policy ...] \
//	     -user alice -purpose analysis [-min 0.5] [-apply] [-timeout 2s] \
//	     'SELECT ...'
//
// CSV files use the table's column names as the header, plus optional
// "_confidence" (default 1) and "_cost_rate" (linear improvement cost;
// omit to mark the row non-improvable) columns. Column types are
// inferred from the first data row (integer, real, then text).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pcqe/internal/core"
	"pcqe/internal/obs"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
	"pcqe/internal/strategy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pcqe:", err)
		os.Exit(1)
	}
}

func run() error {
	var tables, roles, policies []string
	flag.Func("table", "Name=file.csv (repeatable)", func(v string) error { tables = append(tables, v); return nil })
	flag.Func("role", "user=role assignment (repeatable)", func(v string) error { roles = append(roles, v); return nil })
	flag.Func("policy", "role:purpose:beta confidence policy (repeatable)", func(v string) error { policies = append(policies, v); return nil })
	user := flag.String("user", "", "user issuing the query")
	purpose := flag.String("purpose", "any", "purpose of the query")
	minFrac := flag.Float64("min", 0, "θ: fraction of results required (enables improvement proposals)")
	apply := flag.Bool("apply", false, "apply the improvement proposal and re-run the query")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the request; improvement planning degrades to a partial proposal when it expires (0 = no limit)")
	workers := flag.Int("workers", 0, "worker goroutines for parallel improvement planning (0 = GOMAXPROCS, 1 = serial); plans are identical for every value")
	execScript := flag.String("exec", "", "SQL script file to execute before the query (CREATE TABLE / INSERT ... WITH CONFIDENCE / UPDATE / DELETE)")
	explain := flag.Bool("explain", false, "print the chosen query plan with cost estimates to stderr before evaluating")
	trace := flag.Bool("trace", false, "dump the request's phase-timing span tree to stderr")
	metricsDump := flag.Bool("metrics", false, "dump the engine metrics to stderr as Prometheus text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// A -timeout the user explicitly set to zero or a negative duration
	// silently meant "no limit"; reject it instead of surprising them.
	var timeoutSet bool
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "timeout" {
			timeoutSet = true
		}
	})
	if timeoutSet && *timeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %v (omit the flag for no limit)", *timeout)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d (0 = GOMAXPROCS, 1 = serial)", *workers)
	}
	nworkers := *workers
	if nworkers == 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}

	if flag.NArg() != 1 {
		return fmt.Errorf("exactly one SQL query argument expected")
	}
	query := flag.Arg(0)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcqe:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pcqe:", err)
			}
		}()
	}

	cat := relation.NewCatalog()
	for _, spec := range tables {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -table %q, want Name=file.csv", spec)
		}
		n, err := relation.LoadCSVFile(cat, name, file)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d rows\n", name, n)
	}
	if *execScript != "" {
		script, err := os.ReadFile(*execScript)
		if err != nil {
			return err
		}
		results, err := sql.ExecScript(cat, string(script))
		for _, r := range results {
			fmt.Fprintln(os.Stderr, r.Message)
		}
		if err != nil {
			return err
		}
	}

	store, err := policy.NewStoreFromSpecs(policies, roles)
	if err != nil {
		return err
	}

	engine := core.NewEngine(cat, store, nil)
	metrics := obs.New()
	engine.SetMetrics(metrics)

	if *explain {
		stmt, err := sql.Parse(query)
		if err != nil {
			return err
		}
		res, err := sql.ExecStatement(cat, &sql.ExplainStmt{Query: stmt})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s:\n%s\n", res.Message, res.Plan)
	}

	req := core.Request{
		User: *user, Query: query, Purpose: *purpose, MinFraction: *minFrac,
		Budget: strategy.Budget{Timeout: *timeout, Workers: nworkers},
	}
	resp, err := engine.Evaluate(req)
	if err != nil {
		return err
	}
	fmt.Print(resp.Report())
	if *trace {
		fmt.Fprint(os.Stderr, "trace:\n"+resp.Timings.Tree())
	}

	if *apply && resp.Proposal != nil {
		if err := engine.Apply(resp.Proposal); err != nil {
			return err
		}
		fmt.Println("\napplied improvement; re-evaluating:")
		resp, err = engine.Evaluate(req)
		if err != nil {
			return err
		}
		fmt.Print(resp.Report())
		if *trace {
			fmt.Fprint(os.Stderr, "trace:\n"+resp.Timings.Tree())
		}
	}
	if *metricsDump {
		fmt.Fprintln(os.Stderr, "metrics:")
		return metrics.Snapshot().WritePrometheus(os.Stderr)
	}
	return nil
}
