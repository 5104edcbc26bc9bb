package server

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pcqe/internal/core"
	"pcqe/internal/relation"
	"pcqe/internal/strategy"
)

// zeroMicros normalizes wall-clock durations out of a wire span tree
// so golden comparisons see only the stable structure.
func zeroMicros(s *WireSpan) {
	if s == nil {
		return
	}
	s.Micros = 0
	for _, c := range s.Children {
		zeroMicros(c)
	}
}

// TestWireResponseGolden pins the wire contract for a released-row
// response: column names, typed cell values, confidences, version and
// the span-tree shape. A field rename, a lossy marshal (Value used to
// serialize as "{}") or a dropped attribute changes the golden file
// and fails here.
func TestWireResponseGolden(t *testing.T) {
	s := newVentureServer(t, Config{})
	resp, err := s.Engine().Evaluate(core.Request{User: "sue", Query: ventureQuery, Purpose: "analysis"})
	if err != nil {
		t.Fatal(err)
	}
	w := toWire(resp, "")
	zeroMicros(w.Timings)
	got, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "wire_response.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to record)", err)
	}
	if string(got) != string(want) {
		t.Errorf("wire response drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// And the document round-trips: what a Go client decodes matches
	// what the server meant, field for field.
	var back WireResponse
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Released) != 1 || back.Released[0].Confidence != w.Released[0].Confidence {
		t.Fatalf("round trip lost the released row: %+v", back)
	}
	if company, ok := back.Released[0].Values[0].AsString(); !ok || company != "ZStart" {
		t.Fatalf("round trip lost the cell value: %v", back.Released[0].Values)
	}
	if income, ok := back.Released[0].Values[1].AsFloat(); !ok || income != 1.2e5 {
		t.Fatalf("round trip lost the numeric cell: %v", back.Released[0].Values)
	}
	if back.Version != w.Version || back.Threshold != w.Threshold {
		t.Fatalf("round trip lost version/threshold: %+v", back)
	}
}

// TestWireResponseDegraded pins the degraded/partial wire fields: a
// one-step solver budget degrades the full-θ request, and the response
// says so in plain JSON.
func TestWireResponseDegraded(t *testing.T) {
	s := newVentureServer(t, Config{})
	resp, err := s.Engine().Evaluate(core.Request{
		User: "mark", Query: ventureQuery, Purpose: "investment",
		MinFraction: 1, Budget: strategy.Budget{MaxSteps: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded == nil {
		t.Fatal("fixture did not degrade")
	}
	w := toWire(resp, "p1")
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireResponse
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Degraded == "" {
		t.Fatal("degradation cause lost on the wire")
	}
	if back.WithheldCount != 1 || len(back.Released) != 0 {
		t.Fatalf("withheld accounting lost: %+v", back)
	}
	if back.Proposal != nil {
		if back.Proposal.ID != "p1" {
			t.Fatalf("proposal handle lost: %+v", back.Proposal)
		}
		for _, inc := range back.Proposal.Increments {
			if math.IsNaN(inc.From) || math.IsNaN(inc.To) || math.IsNaN(inc.Cost) {
				t.Fatalf("non-finite increment on the wire: %+v", inc)
			}
		}
	}
}

// TestWireConfidenceSanitization feeds the wire layer a response with
// hostile confidences. NaN or ±Inf must never reach the JSON document:
// encoding/json would fail the whole response over one degenerate row.
func TestWireConfidenceSanitization(t *testing.T) {
	// The no-policy filter releases every row, hostile or not.
	released, _ := core.Release([]core.Row{
		{Tuple: relation.NewTuple([]relation.Value{relation.Float(math.NaN())}, nil), Confidence: math.NaN()},
		{Tuple: relation.NewTuple([]relation.Value{relation.Float(math.Inf(1))}, nil), Confidence: math.Inf(1)},
		{Tuple: relation.NewTuple([]relation.Value{relation.Float(1)}, nil), Confidence: 2.5},
	}, 0, false)
	resp := &core.Response{
		Schema:    relation.NewSchema(relation.Column{Name: "X", Type: relation.TypeFloat}),
		Released:  released,
		Threshold: math.Inf(-1),
		Version:   1,
	}
	w := toWire(resp, "")
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("hostile confidences broke the document: %v", err)
	}
	var back WireResponse
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Released) != 3 {
		t.Fatalf("%d rows on the wire, want 3", len(back.Released))
	}
	for i, row := range back.Released {
		if math.IsNaN(row.Confidence) || math.IsInf(row.Confidence, 0) || row.Confidence < 0 || row.Confidence > 1 {
			t.Fatalf("row %d confidence %v escaped sanitization", i, row.Confidence)
		}
	}
	if back.Threshold != 0 {
		t.Fatalf("-Inf threshold sanitized to %v, want 0", back.Threshold)
	}
}
