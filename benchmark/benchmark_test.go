package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var tinySizes = sizes{Suppliers: 1000, Orders: 5000, Items: 250, Regions: 5}

// bootInProcess serves the generated dataset from an httptest server in
// this process, standing in for the pcqed binary.
func bootInProcess(d *dataset, dir string) (*target, error) {
	l, err := newLocal(d, nil)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(l.srv.Handler())
	return &target{URL: ts.URL, PID: os.Getpid(), Stop: func() error { ts.Close(); return nil }}, nil
}

func tinyOptions(t *testing.T) options {
	dir := t.TempDir()
	return options{
		Seed: 7, Sizes: tinySizes, Warmup: 200 * time.Millisecond, Window: time.Second,
		Setups: 2, Trace: true, Boot: bootInProcess, WorkDir: dir, OutDir: filepath.Join(dir, "out"), ReplayScale: 10,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryNamedMetricIsEmittedOnce runs each workload BENCHMARK.json
// names on a tiny dataset and checks the output against the file: every
// end-to-end and per-layer metric appears exactly once, in its own set,
// with the declared unit, and nothing undeclared is printed.
func TestEveryNamedMetricIsEmittedOnce(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("BENCHMARK.json run_seconds %d and paths %v disagree with the benchmark's %d s window in benchmark/", spec.RunSeconds, spec.Paths, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, def := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(def.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", def.Name)
		}
	}
	o := tinyOptions(t)
	for _, wl := range spec.Workloads {
		w, ok := workloadByName(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		if !nameRE.MatchString(wl.Name) || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %q: bad name or why", wl.Name)
		}
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d failed, %d answers checked: %v", wl.Name, res.Failed, res.Attempted, res.Checked, res.Failures)
		}
		for set, defs := range map[string][]metricDef{"end_to_end": spec.EndToEnd, "per_layer": spec.PerLayer} {
			got, other := res.EndToEnd, res.PerLayer
			if set == "per_layer" {
				got, other = other, got
			}
			if len(got) != len(defs) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json declares %d", wl.Name, len(got), set, len(defs))
			}
			for _, def := range defs {
				m, ok := got[def.Name]
				if !ok {
					t.Errorf("%s: %s metric %s not emitted", wl.Name, set, def.Name)
					continue
				}
				if m.Unit != def.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, def.Name, m.Unit, def.Unit)
				}
				if _, twice := other[def.Name]; twice {
					t.Errorf("%s: %s emitted in both sets", wl.Name, def.Name)
				}
				if set == "end_to_end" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", wl.Name, def.Name, m.Value)
				}
			}
		}
		data, err := os.ReadFile(filepath.Join(o.OutDir, wl.Name+".trace.json"))
		if err != nil {
			t.Fatalf("%s: traced pass left no file: %v", wl.Name, err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 || tf.Provenance.Seed != o.Seed {
			t.Errorf("%s: trace file unreadable, empty or without provenance: %v", wl.Name, err)
		}
	}
}

func TestGeneratorIsByteIdenticalForEqualSeeds(t *testing.T) {
	read := func(seed int64) []byte {
		d, err := generate(t.TempDir(), seed, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, f := range []string{d.SuppliersCSV, d.OrdersCSV, d.ExecSQL} {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	if !bytes.Equal(read(3), read(3)) {
		t.Error("equal seeds gave different files")
	}
	if bytes.Equal(read(3), read(4)) {
		t.Error("different seeds gave identical files")
	}
}

func TestStreamsRepeatForEqualSeeds(t *testing.T) {
	d, err := generate(t.TempDir(), 3, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, b := w.Streams(3, d), w.Streams(3, d)
		for i := 0; i < 100; i++ {
			if sa, sb := a[i%2](), b[i%2](); sa != sb {
				t.Fatalf("%s: request %d differs between two builds of the stream: %+v vs %+v", w.Name, i, sa, sb)
			}
		}
	}
}

func TestPercentileAndSpread(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for pct, want := range map[float64]float64{0: 1, 50: 3, 90: 4.6, 100: 5} {
		if got := percentile(v, pct); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, pct, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must give 0")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, ok := quartileSpread(ten); !ok || math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %g, %v", got, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated.
	if got, ok := quartileSpread([]float64{1, 2}); !ok || math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1, 2) = %g, %v", got, ok)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("one value has no spread")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{StartNS: 0, EndNS: 100, Parent: -1},
		{StartNS: 10, EndNS: 40, Parent: 0},
		{StartNS: 30, EndNS: 60, Parent: 0},  // overlaps its sibling: union is 10..60
		{StartNS: 90, EndNS: 120, Parent: 0}, // sticks out: only 90..100 is covered
		{StartNS: 15, EndNS: 20, Parent: 1},
	}
	want := []int64{40, 25, 30, 30, 5}
	for i, got := range selfNanos(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got, want[i])
		}
	}
}

// TestCheckerTripsOnWrongReference serves one real answer and shows the
// comparison accepts the true reference and rejects tampered ones.
func TestCheckerTripsOnWrongReference(t *testing.T) {
	d, err := generate(t.TempDir(), 5, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := bootInProcess(d, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Stop()
	c := &connection{base: tgt.URL, client: newHTTPClient(), start: time.Now(), every: 1}
	if _, err := c.open(); err != nil {
		t.Fatal(err)
	}
	st := step{Kind: kindQuery, Shape: "item_join", Sess: 3, SQL: sqlItemJoin(11)}
	c.do(st)
	s := c.samples[0]
	if s.Fail != "" || len(s.Rows) == 0 || s.Withheld == 0 {
		t.Fatalf("want an answer with released and withheld rows, got %+v", s)
	}
	ref, err := newLocal(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := referenceRows(ref, st.SQL, s.Version)
	if err != nil {
		t.Fatal(err)
	}
	beta := betaOf(st.Sess)
	if err := compareAnswer(rows, beta, s.Rows, s.Withheld); err != nil {
		t.Fatalf("true reference rejected: %v", err)
	}

	released := -1
	for i, r := range rows {
		if r.Conf > beta {
			released = i
		}
	}
	tamper := map[string]func([]refRow) []refRow{
		"confidence off by 1e-6": func(r []refRow) []refRow { r[released].Conf += 1e-6; return r },
		"different value":        func(r []refRow) []refRow { r[released].Key += "x"; return r },
		"row missing":            func(r []refRow) []refRow { return append(r[:released], r[released+1:]...) },
		"extra withheld row":     func(r []refRow) []refRow { return append(r, refRow{Key: "sZ", Conf: 0}) },
	}
	for name, f := range tamper {
		wrong := f(append([]refRow(nil), rows...))
		if err := compareAnswer(wrong, beta, s.Rows, s.Withheld); err == nil {
			t.Errorf("%s: checker accepted a wrong reference", name)
		}
	}
	if err := compareAnswer(rows, beta+0.3, s.Rows, s.Withheld); err == nil {
		t.Error("checker accepted rows released at or below the session's threshold")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	steady := func(med float64) side { return side{median: med, spread: 0.02, n: 10} }
	noisy := func(med float64) side { return side{median: med, spread: 0.30, n: 10} }
	cases := []struct {
		def      metricDef
		old, cur side
		want     string
	}{
		{lower, steady(100), steady(105), "unchanged"},
		{lower, steady(100), steady(115), "REGRESSION"},
		{lower, steady(100), steady(80), "improved"},
		{higher, steady(100), steady(80), "REGRESSION"},
		{higher, steady(100), steady(120), "improved"},
		{lower, noisy(100), steady(105), "unresolved"},
		{lower, steady(100), noisy(120), "REGRESSION"},
		{lower, steady(100), side{}, "missing"},
	}
	for _, c := range cases {
		if _, got := verdict(c.def, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.def.Name, c.old, c.cur, got, c.want)
		}
	}
}
