package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/fault"
)

// blockNextQuery arms the lineage fault probe so the next query parks
// inside the engine until release is closed. Callers own fault.Reset.
func blockNextQuery(t *testing.T) (entered, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	fault.Register("core.lineage.row", func() {
		once.Do(func() { close(entered) })
		<-release
	})
	fault.Enable()
	return entered, release
}

// queryAsync fires a query in the background and reports its status.
func queryAsync(t *testing.T, ts *httptest.Server, token string) chan int {
	t.Helper()
	out := make(chan int, 1)
	body, err := json.Marshal(QueryRequest{Query: ventureQuery})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			out <- -1
			return
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := ts.Client().Do(req)
		if err != nil {
			out <- -1
			return
		}
		resp.Body.Close()
		out <- resp.StatusCode
	}()
	return out
}

// TestAdmissionControl saturates a one-slot worker pool and asserts
// the next request is refused immediately with 503 + Retry-After (and
// counted), instead of queueing behind the stuck one.
func TestAdmissionControl(t *testing.T) {
	s := newVentureServer(t, Config{WorkerPool: 1, MaxInFlight: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "sue", "analysis")

	defer fault.Reset()
	entered, release := blockNextQuery(t)
	first := queryAsync(t, ts, token)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first query never reached the engine")
	}

	// The pool is full: a second request is turned away at the door.
	body, err := json.Marshal(QueryRequest{Query: ventureQuery})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool: status %d, want 503", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := s.metrics.Counter("server.admission.rejected").Value(); got == 0 {
		t.Fatal("admission rejection was not counted")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first query: status %d after release", code)
	}
}

// TestDrainFlushesJournal exercises the graceful-shutdown contract:
// after Drain, new sessions and queries are refused (503), healthz
// reports draining, and the audit journal is on disk gap-free.
func TestDrainFlushesJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "audit.jsonl")
	s := newVentureServer(t, Config{JournalPath: journal})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sueToken := handshake(t, ts, "sue", "analysis")
	markToken := handshake(t, ts, "mark", "investment")
	for i := 0; i < 3; i++ {
		if code := do(t, ts, http.MethodPost, "/v1/query", sueToken, QueryRequest{Query: ventureQuery}, &WireResponse{}); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	var wr WireResponse
	if code := do(t, ts, http.MethodPost, "/v1/query", markToken, QueryRequest{Query: ventureQuery, MinFraction: 1}, &wr); code != http.StatusOK {
		t.Fatalf("mark query: status %d", code)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var we wireError
	if code := do(t, ts, http.MethodPost, "/v1/session", "", HandshakeRequest{User: "sue", Purpose: "analysis"}, &we); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain handshake: status %d, want 503", code)
	}
	if !strings.Contains(we.Error, "draining") {
		t.Fatalf("post-drain handshake error = %q", we.Error)
	}
	if code := do(t, ts, http.MethodPost, "/v1/query", sueToken, QueryRequest{Query: ventureQuery}, &we); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query: status %d, want 503", code)
	}
	if code := do(t, ts, http.MethodGet, "/v1/healthz", "", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: status %d, want 503", code)
	}

	// The flushed journal matches the in-memory log event for event and
	// is gap-free (ReadJournal verifies Seq = 1..n).
	events, err := ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	live := s.Engine().Audit().Events()
	if len(events) != len(live) {
		t.Fatalf("journal has %d events, log has %d", len(events), len(live))
	}
	var kinds []core.AuditEventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	wantEvaluates := 0
	for _, k := range kinds {
		if k == core.AuditEvaluate {
			wantEvaluates++
		}
	}
	if wantEvaluates != 4 {
		t.Fatalf("journal records %d evaluate events, want 4 (kinds: %v)", wantEvaluates, kinds)
	}
}

// TestDrainWaitsForInflight proves drain is graceful, not abrupt: a
// request parked inside the engine when Drain begins still completes,
// and its audit events make the flushed journal.
func TestDrainWaitsForInflight(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "audit.jsonl")
	s := newVentureServer(t, Config{JournalPath: journal, DrainTimeout: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "sue", "analysis")

	defer fault.Reset()
	entered, release := blockNextQuery(t)
	inflight := queryAsync(t, ts, token)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the engine")
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	// Drain must be waiting on the parked request, not done already.
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight query: status %d — drain cut it off", code)
	}
	events, err := ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("journal missing the drained request's events")
	}
}

// TestDrainDeadline pins the failure mode: a request that never
// finishes makes Drain give up at the configured deadline with a
// telling error (the journal still flushes).
func TestDrainDeadline(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "audit.jsonl")
	s := newVentureServer(t, Config{JournalPath: journal, DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "sue", "analysis")

	defer fault.Reset()
	entered, release := blockNextQuery(t)
	inflight := queryAsync(t, ts, token)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the engine")
	}

	err := s.Drain(context.Background())
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("drain error = %v, want a drain-deadline failure", err)
	}
	if _, jerr := ReadJournal(journal); jerr != nil {
		t.Fatalf("journal was not flushed on a failed drain: %v", jerr)
	}
	close(release)
	<-inflight
}

// explain posts ventureQuery to /v1/explain and returns the status and
// the Retry-After header.
func explain(t *testing.T, ts *httptest.Server, token string) (int, string) {
	t.Helper()
	body, err := json.Marshal(ExplainRequest{Query: ventureQuery})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/explain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestExplainRefusedWhileDraining: planning runs every IN (SELECT …) at
// plan time, so an explain is work like a query and a draining server
// turns it away with 503 + Retry-After.
func TestExplainRefusedWhileDraining(t *testing.T) {
	s := newVentureServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "sue", "analysis")
	if code, _ := explain(t, ts, token); code != http.StatusOK {
		t.Fatalf("explain before drain: status %d", code)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, retry := explain(t, ts, token)
	if code != http.StatusServiceUnavailable || retry == "" {
		t.Fatalf("explain while draining: status %d, Retry-After %q; want 503 with Retry-After", code, retry)
	}
}

// TestExplainAdmissionControl: an explain takes a worker-pool slot, so
// with the one slot held by a parked query it is refused with 503 +
// Retry-After (and counted) rather than planned beside it.
func TestExplainAdmissionControl(t *testing.T) {
	s := newVentureServer(t, Config{WorkerPool: 1, MaxInFlight: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "sue", "analysis")

	defer fault.Reset()
	entered, release := blockNextQuery(t)
	var unpark sync.Once
	// A failing check must still free the parked query, or ts.Close waits
	// on it forever.
	defer unpark.Do(func() { close(release) })
	first := queryAsync(t, ts, token)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the engine")
	}
	code, retry := explain(t, ts, token)
	if code != http.StatusServiceUnavailable || retry == "" {
		t.Fatalf("explain on a saturated pool: status %d, Retry-After %q; want 503 with Retry-After", code, retry)
	}
	if got := s.metrics.Counter("server.admission.rejected").Value(); got == 0 {
		t.Fatal("admission rejection was not counted")
	}
	unpark.Do(func() { close(release) })
	if code := <-first; code != http.StatusOK {
		t.Fatalf("parked query: status %d after release", code)
	}
	if code, _ := explain(t, ts, token); code != http.StatusOK {
		t.Fatalf("explain after release: status %d", code)
	}
}
