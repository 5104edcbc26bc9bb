package obs

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	m := New()
	c := m.Counter("a")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if m.Counter("a") != c {
		t.Fatal("same name must return the same counter")
	}
	g := m.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := New()
	h := m.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN()} {
		h.Observe(v)
	}
	s := m.Snapshot().Histograms["h"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", s.Count)
	}
	if math.Abs(s.Sum-556.5) > 1e-9 {
		t.Fatalf("sum = %g, want 556.5", s.Sum)
	}
	want := []int64{2, 1, 1, 1} // ≤1: {0.5, 1}; ≤10: {5}; ≤100: {50}; overflow: {500}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
		}
	}
}

func TestNilRegistryAndHandlesAreSafe(t *testing.T) {
	var m *Metrics
	m.Counter("x").Inc()
	m.Gauge("y").Set(3)
	m.Histogram("z", SizeBuckets).Observe(1)
	var out strings.Builder
	if err := m.Snapshot().WritePrometheus(&out); err != nil || out.Len() != 0 {
		t.Fatalf("nil registry renders %q (err %v), want nothing", out.String(), err)
	}
}

func TestSnapshotConcurrency(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Counter("hits").Inc()
				m.Histogram("lat", LatencyBuckets).Observe(0.001)
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Counters["hits"] != 4000 {
		t.Fatalf("hits = %d, want 4000", snap.Counters["hits"])
	}
	if h := snap.Histograms["lat"]; h.Count != 4000 || math.Abs(h.Sum-4.0) > 1e-6 {
		t.Fatalf("lat = %+v", h)
	}
}

// TestPrometheusTextGolden pins the one rendering of a snapshot: names
// sorted across kinds, prefixed and with dots turned into underscores,
// a # TYPE line each, cumulative buckets through +Inf (equal to _count),
// then _sum and _count.
func TestPrometheusTextGolden(t *testing.T) {
	m := New()
	m.Counter("server.queries").Add(3)
	m.Gauge("engine.inflight").Set(2)
	h := m.Histogram("engine.request.seconds", []float64{0.001, 0.01, 1})
	for _, v := range []float64{0.0005, 0.005, 0.005, 2} {
		h.Observe(v)
	}
	const want = `# TYPE pcqe_engine_inflight gauge
pcqe_engine_inflight 2
# TYPE pcqe_engine_request_seconds histogram
pcqe_engine_request_seconds_bucket{le="0.001"} 1
pcqe_engine_request_seconds_bucket{le="0.01"} 3
pcqe_engine_request_seconds_bucket{le="1"} 3
pcqe_engine_request_seconds_bucket{le="+Inf"} 4
pcqe_engine_request_seconds_sum 2.0105
pcqe_engine_request_seconds_count 4
# TYPE pcqe_server_queries counter
pcqe_server_queries 3
`
	var got strings.Builder
	if err := m.Snapshot().WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("rendering:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestServeHTTPSetsRuntimeGauges(t *testing.T) {
	m := New()
	m.Counter("engine.queries").Inc()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"pcqe_engine_queries 1\n", "# TYPE pcqe_runtime_goroutines gauge\n", "# TYPE pcqe_runtime_heap_bytes gauge\n", "# TYPE pcqe_runtime_gc_cycles gauge\n"} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
	if snap := m.Snapshot(); snap.Gauges["runtime.goroutines"] < 1 || snap.Gauges["runtime.heap.bytes"] < 1 {
		t.Fatalf("runtime gauges not set: %v", snap.Gauges)
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	root := NewSpan("request")
	evalSpan := root.StartChild("eval")
	time.Sleep(time.Millisecond)
	evalSpan.End()
	solve := root.StartChild("strategy").StartChild("solve:greedy")
	solve.SetAttr("nodes", 42)
	solve.SetStatus("budget exceeded: deadline")
	solve.End()
	root.End()

	if root.Find("solve:greedy") != solve {
		t.Fatal("Find must locate nested spans")
	}
	if root.Find("nope") != nil {
		t.Fatal("Find on a missing name must return nil")
	}
	if evalSpan.Duration() < time.Millisecond {
		t.Fatalf("eval duration = %v", evalSpan.Duration())
	}
	if solve.Attr("nodes") != 42 || solve.Status() == "" {
		t.Fatal("attrs/status lost")
	}
	tree := root.Tree()
	for _, want := range []string{"request", "  eval", "    solve:greedy", "nodes=42", "[budget exceeded: deadline]"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	// End is idempotent: the duration does not grow on a second call.
	d := solve.Duration()
	time.Sleep(time.Millisecond)
	solve.End()
	if solve.Duration() != d {
		t.Fatal("End must be idempotent")
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.End()
	s.SetAttr("k", 1)
	s.SetStatus("x")
	if c := s.StartChild("child"); c != nil {
		t.Fatal("child of nil span must be nil")
	}
	if s.Tree() != "" || s.Find("x") != nil || s.Duration() != 0 {
		t.Fatal("nil span accessors must be zero-valued")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := root.StartChild("group")
				c.SetAttr("i", int64(i))
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestSpanContextPropagation(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("background context carries no span")
	}
	s := NewSpan("root")
	ctx := ContextWithSpan(context.Background(), s)
	if SpanFromContext(ctx) != s {
		t.Fatal("span lost in context round-trip")
	}
	if got := ContextWithSpan(context.Background(), nil); SpanFromContext(got) != nil {
		t.Fatal("nil span must not be stored")
	}
}
