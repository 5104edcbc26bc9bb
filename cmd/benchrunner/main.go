// Command benchrunner regenerates the paper's evaluation artifacts:
// Table 4 and Figure 11 panels (a)–(f), plus the ablation studies listed
// in DESIGN.md. Without flags it runs a reduced grid that finishes in
// well under a minute; -full runs the paper's complete parameter sweep.
//
// Usage:
//
//	benchrunner [-fig all|table4|11a..11f|ablations|parallel] [-full]
//	            [-seed N] [-workers N]
//	            [-cpuprofile f] [-memprofile f]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pcqe/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run: "+strings.Join(bench.Names(), ", "))
	full := flag.Bool("full", false, "run the paper's complete parameter grid (slow)")
	seed := flag.Int64("seed", 1, "workload random seed")
	workers := flag.Int("workers", 0, "worker-pool width for the parallel scaling experiment's size sweep (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "benchrunner: -workers must be non-negative, got %d (0 = GOMAXPROCS, 1 = serial)\n", *workers)
		os.Exit(1)
	}
	if err := run(*fig, *full, *seed, *workers, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(fig string, full bool, seed int64, workers int, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
			}
		}()
	}

	opt := bench.Options{Full: full, Seed: seed, Workers: workers}
	tables, err := bench.Run(fig, opt)
	if err != nil {
		return err
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t.Format())
	}
	return nil
}
