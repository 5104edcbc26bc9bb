package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"pcqe/internal/conf"
	"pcqe/internal/server"
)

// wireResponse is what the driver reads of a /v1/query reply. Released
// rows and the timings tree stay raw: only sampled responses have their
// rows decoded, and the tree is read after the window, in a traced run.
type wireResponse struct {
	Released      []json.RawMessage `json:"released"`
	WithheldCount int               `json:"withheld_count"`
	Degraded      string            `json:"degraded"`
	Partial       bool              `json:"partial"`
	Proposal      *struct {
		ID         string                 `json:"id"`
		Increments []server.WireIncrement `json:"increments"`
	} `json:"proposal"`
	Version int64           `json:"version"`
	Timings json.RawMessage `json:"timings"`
}

// sample is one completed request as the client saw it.
type sample struct {
	Kind, Shape string
	Conn, Sess  int
	SQL         string
	// Start and End are offsets from the start of the run.
	Start, End time.Duration
	// Fail is why the request counts as an error ("" for a success).
	Fail     string
	Status   int
	Bytes    int
	Version  int64
	Released int
	Withheld int
	// Rows holds the raw released rows of a response sampled for the
	// reference comparison; Timings the raw span tree in a traced run.
	Rows    []json.RawMessage
	Timings json.RawMessage
	// Increments is an applied proposal's plan (apply samples only), from
	// which the reference replays the commit.
	Increments []server.WireIncrement
}

func (s *sample) millis() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// connection is one closed-loop caller: its own HTTP connection, the
// sessions it multiplexes, and the samples it has recorded.
type connection struct {
	id      int
	base    string
	client  *http.Client
	tokens  []string
	start   time.Time
	trace   bool
	every   int
	queries int
	samples []sample
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// post sends one JSON request and reads the whole reply; the returned
// sample carries the round trip from send to last byte.
func (c *connection) post(path, token string, body any) (sample, []byte) {
	payload, err := json.Marshal(body)
	if err != nil {
		return sample{Fail: "marshal: " + err.Error()}, nil
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return sample{Fail: "request: " + err.Error()}, nil
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	s := sample{Start: time.Since(c.start)}
	resp, err := c.client.Do(req)
	if err != nil {
		s.End = time.Since(c.start)
		s.Fail = "transport: " + err.Error()
		return s, nil
	}
	data, err := io.ReadAll(resp.Body)
	s.End = time.Since(c.start)
	resp.Body.Close()
	s.Status, s.Bytes = resp.StatusCode, len(data)
	switch {
	case err != nil:
		s.Fail = "transport: " + err.Error()
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated:
		s.Fail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return s, data
}

// open performs the handshake for every session and returns how long
// each took.
func (c *connection) open() ([]float64, error) {
	var micros []float64
	c.tokens = make([]string, len(sessionUsers))
	for i, u := range sessionUsers {
		s, data := c.post("/v1/session", "", server.HandshakeRequest{User: u.User, Purpose: purpose})
		if s.Fail != "" {
			return nil, fmt.Errorf("benchmark: handshake for %s: %s", u.User, s.Fail)
		}
		var hs server.HandshakeResponse
		if err := json.Unmarshal(data, &hs); err != nil {
			return nil, fmt.Errorf("benchmark: handshake for %s: %w", u.User, err)
		}
		if !conf.Eq(hs.Beta, betaOf(i)) || !hs.PolicyApplied {
			return nil, fmt.Errorf("benchmark: session %s pinned to threshold %g, want %g", u.User, hs.Beta, betaOf(i))
		}
		c.tokens[i] = hs.Token
		micros = append(micros, float64(s.End-s.Start)/float64(time.Microsecond))
	}
	return micros, nil
}

// query sends one /v1/query and records it. The decoded reply is
// returned for a cycle to act on (nil when the request failed).
func (c *connection) query(st step, kind string, minFraction float64) *wireResponse {
	s, data := c.post("/v1/query", c.tokens[st.Sess], server.QueryRequest{Query: st.SQL, MinFraction: minFraction})
	s.Kind, s.Shape, s.Sess, s.SQL = kind, st.Shape, st.Sess, st.SQL
	var resp *wireResponse
	if s.Fail == "" {
		resp = &wireResponse{}
		if err := json.Unmarshal(data, resp); err != nil {
			s.Fail, resp = "decode: "+err.Error(), nil
		}
	}
	if resp != nil {
		s.Version, s.Released, s.Withheld = resp.Version, len(resp.Released), resp.WithheldCount
		if resp.Degraded != "" || resp.Partial {
			s.Fail = "degraded or partial: " + resp.Degraded
		}
		if c.queries++; c.queries%c.every == 0 {
			s.Rows = resp.Released
		}
		if c.trace {
			s.Timings = resp.Timings
		}
	}
	c.record(s)
	return resp
}

func (c *connection) record(s sample) {
	s.Conn = c.id
	c.samples = append(c.samples, s)
}

// need is ⌈θ·n⌉, the rows a propose asks to have released.
func need(total int) int { return int(math.Ceil(theta * float64(total))) }

// do executes one generated step.
func (c *connection) do(st step) {
	switch st.Kind {
	case kindQuery:
		c.query(st, kindQuery, 0)
	case kindPropose:
		c.query(st, kindPropose, theta)
	case kindExplain:
		s, _ := c.post("/v1/explain", c.tokens[st.Sess], server.ExplainRequest{Query: st.SQL})
		s.Kind, s.Shape, s.Sess, s.SQL = kindExplain, st.Shape, st.Sess, st.SQL
		c.record(s)
	case kindCycle:
		resp := c.query(st, kindPropose, theta)
		if resp == nil {
			return
		}
		last := &c.samples[len(c.samples)-1]
		total := len(resp.Released) + resp.WithheldCount
		if resp.Proposal == nil {
			// θ already met needs no plan and is a success; a missing plan
			// when rows are owed is not.
			if len(resp.Released) < need(total) && last.Fail == "" {
				last.Fail = fmt.Sprintf("no proposal with %d of %d released", len(resp.Released), total)
			}
			return
		}
		s, data := c.post("/v1/apply", c.tokens[st.Sess], server.ApplyRequest{ProposalID: resp.Proposal.ID})
		s.Kind, s.Shape, s.Sess = kindApply, st.Shape, st.Sess
		var applied server.ApplyResponse
		if s.Fail == "" {
			if err := json.Unmarshal(data, &applied); err != nil || !applied.Applied {
				s.Fail = "apply not acknowledged"
			}
		}
		s.Version, s.Increments = applied.Version, resp.Proposal.Increments
		c.record(s)
		if s.Fail != "" {
			return
		}
		after := c.query(st, kindRequery, 0)
		if after == nil {
			return
		}
		last = &c.samples[len(c.samples)-1]
		if n := len(after.Released) + after.WithheldCount; len(after.Released) < need(n) && last.Fail == "" {
			last.Fail = fmt.Sprintf("after apply %d of %d released, want %d", len(after.Released), n, need(n))
		}
	}
}

// drive runs both connections closed-loop until the deadline and
// returns every sample, warm-up included.
func drive(conns []*connection, streams [2]stream, total time.Duration) []sample {
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(c *connection, next stream) {
			defer wg.Done()
			for time.Since(c.start) < total {
				c.do(next())
			}
		}(c, streams[i])
	}
	wg.Wait()
	var all []sample
	for _, c := range conns {
		all = append(all, c.samples...)
	}
	return all
}
