package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	return &doc, nil
}

// side summarises one document's runs of one (workload, metric) pair.
type side struct {
	median, spread float64 // spread is 0 below two runs
	n              int
}

func summarise(runs []*result, name string) side {
	var values []float64
	for _, r := range runs {
		if m, ok := r.EndToEnd[name]; ok {
			values = append(values, m.Value)
		}
	}
	s := side{median: median(values), n: len(values)}
	s.spread, _ = quartileSpread(values)
	return s
}

func errorRate(runs []*result) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// verdict applies one metric's bound to a pair of summaries. worse is
// the change in the metric's bad direction as a share of the old
// median. A worsening beyond the bound is a regression whatever the
// spread; a pair inside the bound whose own run-to-run spread exceeds it
// is unresolved rather than unchanged.
func verdict(def metricDef, old, cur side) (worse float64, v string) {
	worse = ratio(cur.median-old.median, old.median)
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case old.n == 0 || cur.n == 0:
		return 0, "missing"
	case worse > def.Bound:
		return worse, "REGRESSION"
	case old.spread > def.Bound || cur.spread > def.Bound:
		return worse, "unresolved"
	case worse < -def.Bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns an error on a regression or a higher error rate.
func compareFiles(w io.Writer, spec *spec, oldPath, newPath string) error {
	old, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	cur, err := readDocument(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old %s (commit %s, %d cpu)  new %s (commit %s, %d cpu)\n",
		oldPath, old.Provenance.Commit, old.Provenance.NumCPU, newPath, cur.Provenance.Commit, cur.Provenance.NumCPU)
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "worse", "bound", "spread o", "spread n", "verdict")
	bad := 0
	for _, wl := range spec.Workloads {
		o, c := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		for _, def := range spec.EndToEnd {
			so, sc := summarise(o, def.Name), summarise(c, def.Name)
			worse, v := verdict(def, so, sc)
			if v == "REGRESSION" || v == "missing" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, def.Name, so.median, sc.median, 100*worse, 100*def.Bound, 100*so.spread, 100*sc.spread, v)
		}
		eo, ec := errorRate(o), errorRate(c)
		v := "unchanged"
		if ec > eo {
			v = "REGRESSION"
			bad++
		}
		fmt.Fprintf(w, "%-14s %-16s %12.6f %12.6f %8s %6.0f%% %8s %8s  %s\n", wl.Name, "error_rate", eo, ec, "", 0.0, "", "", v)
	}
	if bad > 0 {
		return fmt.Errorf("benchmark: %d (workload, metric) pair(s) regressed or are missing", bad)
	}
	return nil
}
