package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// options fix everything about a run except the workload.
type options struct {
	Seed   int64
	Sizes  sizes
	Warmup time.Duration
	Window time.Duration
	// Setups is how many times set-up is repeated; set-up metrics are the
	// median and the last target serves the workload.
	Setups int
	Trace  bool
	Boot   bootFunc
	// KeepAwake, when set, starts the idle-priority loops that stop CPUs
	// from halting and returns what stops them (see keepAwake).
	KeepAwake func() (stop func())
	// WorkDir receives the generated inputs (removed afterwards); OutDir
	// the trace files.
	WorkDir, OutDir string
	// ReplayScale divides the traced pass's request counts (self-test).
	ReplayScale int
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checked   int      `json:"answers_checked"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  metrics  `json:"end_to_end"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
}

// booted is one completed set-up: the generated inputs, the target
// serving them, the eight sessions' tokens, how long each handshake took
// (µs) and how long the whole set-up took.
type booted struct {
	data       *dataset
	target     *target
	tokens     []string
	handshakes []float64
	seconds    float64
}

// setUp generates the inputs, boots the target and opens the eight
// sessions; the elapsed time is the set-up a user waits for.
func setUp(o options, dir string) (*booted, error) {
	start := time.Now()
	d, err := generate(dir, o.Seed, o.Sizes)
	if err != nil {
		return nil, err
	}
	t, err := o.Boot(d, dir)
	if err != nil {
		return nil, err
	}
	c := &connection{base: t.URL, client: newHTTPClient(), start: start}
	handshakes, err := c.open()
	c.client.CloseIdleConnections()
	if err != nil {
		t.Stop()
		return nil, err
	}
	return &booted{d, t, c.tokens, handshakes, time.Since(start).Seconds()}, nil
}

// runWorkload measures one workload: repeated set-up, warm-up, the
// timed closed-loop window, the answer checks and — in a traced run —
// the wire-side layer metrics and the in-process traced pass.
func runWorkload(w workload, o options) (*result, error) {
	dir, err := os.MkdirTemp(o.WorkDir, "run-")
	if err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	defer os.RemoveAll(dir)

	// From the first set-up to the end of the window no CPU goes idle.
	awake := func() {}
	if o.KeepAwake != nil {
		awake = o.KeepAwake()
	}
	defer awake()

	var up *booted
	var handshakes, setupSeconds, loadRSS []float64
	for i := 0; i < o.Setups; i++ {
		if up != nil {
			if err := up.target.Stop(); err != nil {
				return nil, err
			}
		}
		if up, err = setUp(o, dir); err != nil {
			return nil, err
		}
		rss, err := procMB(up.target.PID, "VmRSS")
		if err != nil {
			up.target.Stop()
			return nil, err
		}
		handshakes = append(handshakes, up.handshakes...)
		setupSeconds, loadRSS = append(setupSeconds, up.seconds), append(loadRSS, rss)
	}
	d, t := up.data, up.target

	start := time.Now()
	conns := make([]*connection, 2)
	for i := range conns {
		conns[i] = &connection{id: i, base: t.URL, client: newHTTPClient(), tokens: up.tokens,
			start: start, trace: o.Trace, every: w.CheckEvery}
	}
	samples := drive(conns, w.Streams(o.Seed, d), o.Warmup+o.Window)
	awake()
	peakRSS, rssErr := procMB(t.PID, "VmHWM")
	for _, c := range conns {
		c.client.CloseIdleConnections()
	}
	if err := t.Stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}

	inWindow := func(s *sample) bool { return s.Start >= o.Warmup && s.End <= o.Warmup+o.Window }
	ref, err := newLocal(d, nil)
	if err != nil {
		return nil, err
	}
	checked, err := verify(ref, samples, inWindow)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: w.Name, Seed: o.Seed, Checked: checked, EndToEnd: metrics{}}
	var window []*sample
	for i := range samples {
		s := &samples[i]
		if !inWindow(s) {
			continue
		}
		window = append(window, s)
		res.Attempted++
		if s.Fail != "" {
			res.Failed++
			if len(res.Failures) < 5 {
				res.Failures = append(res.Failures, fmt.Sprintf("%s %s: %s", s.Kind, s.Shape, s.Fail))
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && checked > 0
	endToEnd(res.EndToEnd, window, o.Window.Seconds())
	res.EndToEnd.set("setup_s", median(setupSeconds), "s", len(setupSeconds))
	// The lowest reading, not the median: whether pcqed's collector has
	// run since the load makes single readings fall into two clusters 7%
	// apart, and the median of a few lands in either.
	res.EndToEnd.set("load_rss_mb", slices.Min(loadRSS), "MB", len(loadRSS))

	if o.Trace {
		res.PerLayer = metrics{}
		res.PerLayer.set("server.session_open_us_p50", median(handshakes), "us", len(handshakes))
		res.PerLayer.set("server.peak_rss_mb", peakRSS, "MB", 1)
		if err := wireLayers(res.PerLayer, window); err != nil {
			return nil, err
		}
		if err := tracedPass(res.PerLayer, w, o, d); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// latencies collects the round trips, in ms, of the window's successful
// requests of one kind.
func latencies(window []*sample, kind string) []float64 {
	var out []float64
	for _, s := range window {
		if s.Kind == kind && s.Fail == "" {
			out = append(out, s.millis())
		}
	}
	return out
}

// endToEnd computes the metrics a session's user would see. Every
// workload reports every metric: where a workload sends no request of a
// kind, that kind's percentiles repeat the nearest kind it does send
// (marked as an alias), so the gate holds one number per pair without
// inventing traffic the workload does not have.
func endToEnd(m metrics, window []*sample, seconds float64) {
	ok, rows := 0, 0
	for _, s := range window {
		if s.Fail == "" {
			ok++
			rows += s.Released
		}
	}
	m.set("throughput_rps", float64(ok)/seconds, "1/s", ok)
	m.set("rows_per_s", float64(rows)/seconds, "1/s", rows)

	kinds := []string{kindQuery, kindPropose, kindApply}
	for _, kind := range kinds {
		if ms := latencies(window, kind); len(ms) > 0 {
			m.set(kind+"_p50_ms", percentile(ms, 50), "ms", len(ms))
			m.set(kind+"_p90_ms", percentile(ms, 90), "ms", len(ms))
		}
	}
	// Alias order: the nearest measured kind first.
	fallback := map[string][]string{
		kindQuery: {kindPropose}, kindPropose: {kindQuery}, kindApply: {kindPropose, kindQuery},
	}
	for _, kind := range kinds {
		if _, measured := m[kind+"_p50_ms"]; measured {
			continue
		}
		for _, from := range fallback[kind] {
			if src, ok := m[from+"_p50_ms"]; ok && src.Alias == "" {
				for _, pct := range []string{"_p50_ms", "_p90_ms"} {
					src := m[from+pct]
					src.Alias = from + pct
					m[kind+pct] = src
				}
				break
			}
		}
	}
}

// timingTree is the part of a response's timings the wire-side layer
// metrics read.
type timingTree struct {
	Micros   int64 `json:"micros"`
	Children []struct {
		Name  string           `json:"name"`
		Attrs map[string]int64 `json:"attrs"`
	} `json:"children"`
}

// wireLayers computes the layer metrics only the wire can show: what
// the round trip adds to the engine's own span, cache hit ratios as the
// responses report them, response sizes, the tail, refusals.
func wireLayers(m metrics, window []*sample) error {
	var overhead, kb, explain, all []float64
	var planHits, planMisses, confHits, confMisses float64
	rejected := map[int]int{}
	for _, s := range window {
		if s.Status == http.StatusTooManyRequests || s.Status == http.StatusServiceUnavailable {
			rejected[s.Status]++
		}
		if s.Fail != "" {
			continue
		}
		if s.Kind == kindExplain {
			explain = append(explain, s.millis())
			continue
		}
		if s.Kind == kindApply {
			continue
		}
		all = append(all, s.millis())
		kb = append(kb, float64(s.Bytes)/1024)
		var tree timingTree
		if err := json.Unmarshal(s.Timings, &tree); err != nil {
			return fmt.Errorf("benchmark: response timings: %w", err)
		}
		overhead = append(overhead, float64(s.End-s.Start)/float64(time.Microsecond)-float64(tree.Micros))
		for _, c := range tree.Children {
			planHits += float64(c.Attrs["plan_cache_hits"])
			planMisses += float64(c.Attrs["plan_cache_misses"])
			confHits += float64(c.Attrs["conf_cache_hits"])
			confMisses += float64(c.Attrs["conf_cache_misses"])
		}
	}
	m.set("server.http_overhead_us_p50", median(overhead), "us", len(overhead))
	m.set("server.explain_p50_ms", median(explain), "ms", len(explain))
	m.set("server.resp_kb_p50", median(kb), "KB", len(kb))
	m.set("server.query_p99_ms", percentile(all, 99), "ms", len(all))
	m.set("server.rejected_429", float64(rejected[http.StatusTooManyRequests]), "count", len(window))
	m.set("server.rejected_503", float64(rejected[http.StatusServiceUnavailable]), "count", len(window))
	m.set("sql.plan_cache_hit_ratio", ratio(planHits, planHits+planMisses), "ratio", int(planHits+planMisses))
	m.set("relation.conf_cache_hit_ratio", ratio(confHits, confHits+confMisses), "ratio", int(confHits+confMisses))
	return nil
}

// traceFile is the document the traced pass leaves behind.
type traceFile struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Spans      []span     `json:"spans"`
}

// tracedPass replays the workload's first requests single-threaded
// in-process, on one engine recording spans and — same requests, own
// engine and catalog — on one with recording off, then runs the two
// micro-measurements that need no workload.
func tracedPass(m metrics, w workload, o options, d *dataset) error {
	warm, n := w.Warm/o.ReplayScale, max(w.Replay/o.ReplayScale, 4)
	traced, err := newReplayer(d, true)
	if err != nil {
		return err
	}
	untraced, err := newReplayer(d, false)
	if err != nil {
		return err
	}
	elapsed, err := replayBoth(traced, untraced, func() [2]stream { return w.Streams(o.Seed, d) }, warm, n)
	if err != nil {
		return err
	}
	spans := traced.rec.spans
	spanMetrics(m, spans)
	m.set("trace.overhead_ratio", ratio(elapsed[0].Seconds(), elapsed[1].Seconds()), "ratio", n)
	m.set("relation.load_rows_per_s", ratio(float64(traced.l.loadRows), traced.l.loadSeconds), "1/s", traced.l.loadRows)
	m.set("lineage.pivots_per_row", ratio(float64(traced.pivots), float64(traced.rows)), "count", int(traced.rows))
	m.set("lineage.shared_rows_ratio", ratio(float64(traced.sharedRows), float64(traced.rows)), "ratio", int(traced.rows))
	m.set("core.apply_increments_p50", median(traced.increments), "count", len(traced.increments))
	if err := solveBench(m, o.Seed); err != nil {
		return err
	}
	if err := commitBench(m, untraced.l); err != nil {
		return err
	}

	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}
	doc, err := json.Marshal(traceFile{Provenance: newProvenance(o), Workload: w.Name, Spans: spans})
	if err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}
	if err := os.WriteFile(filepath.Join(o.OutDir, w.Name+".trace.json"), doc, 0o644); err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}
	return nil
}
