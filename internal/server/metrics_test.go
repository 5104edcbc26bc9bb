package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"pcqe/internal/obs"
)

// documentedMetric is one row of DESIGN.md §8's metric table: the
// registry name as a pattern (a <…> part matches one dot-free segment)
// and the exposed Prometheus name with the same parts.
type documentedMetric struct {
	name    *regexp.Regexp
	exposed string
}

// metricTable parses DESIGN.md §8's metric table.
func metricTable(t *testing.T) []documentedMetric {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start := strings.Index(text, "## 8. ")
	end := strings.Index(text, "## 9. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §8")
	}
	row := regexp.MustCompile("^\\| `([^`]+)` \\| `([^`]+)` \\|")
	part := regexp.MustCompile(`<[^>]+>`)
	var table []documentedMetric
	for _, line := range strings.Split(text[start:end], "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := part.ReplaceAllString(regexp.QuoteMeta(m[1]), `([^.]+)`)
		table = append(table, documentedMetric{regexp.MustCompile("^" + pattern + "$"), m[2]})
	}
	if len(table) < 30 {
		t.Fatalf("DESIGN.md §8 lists %d metrics; the table did not parse", len(table))
	}
	return table
}

// TestMetricNamesAreDocumented drives one session through handshake,
// query, propose, apply and audit (plus a refused handshake and a
// scrape), then fails on any snapshot name DESIGN.md §8's table does
// not list, or lists under another exposed name.
func TestMetricNamesAreDocumented(t *testing.T) {
	s := newVentureServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := do(t, ts, http.MethodPost, "/v1/session", "", HandshakeRequest{User: "intruder", Purpose: "analysis"}, &struct{}{}); code != http.StatusUnauthorized {
		t.Fatalf("unpolicied handshake: status %d", code)
	}
	mark := handshake(t, ts, "mark", "investment")
	var first WireResponse
	if code := do(t, ts, http.MethodPost, "/v1/query", mark, QueryRequest{Query: ventureQuery, MinFraction: 1}, &first); code != http.StatusOK || first.Proposal == nil {
		t.Fatalf("query: status %d, proposal %v", code, first.Proposal)
	}
	if code := do(t, ts, http.MethodPost, "/v1/apply", mark, ApplyRequest{ProposalID: first.Proposal.ID}, &ApplyResponse{}); code != http.StatusOK {
		t.Fatalf("apply: status %d", code)
	}
	if code := do(t, ts, http.MethodGet, "/v1/audit?limit=5", mark, nil, &AuditResponse{}); code != http.StatusOK {
		t.Fatalf("audit: status %d", code)
	}
	m := s.Engine().Metrics()
	m.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))

	table := metricTable(t)
	snap := m.Snapshot()
	emitted := map[string]bool{}
	for name := range snap.Counters {
		emitted[name] = true
	}
	for name := range snap.Gauges {
		emitted[name] = true
	}
	for name := range snap.Histograms {
		emitted[name] = true
	}
	for _, want := range []string{"server.queries", "server.errors.401", "server.handler.audit.seconds", "sql.plancache.misses", "relation.snapshots.taken", "engine.audit.apply", "runtime.goroutines"} {
		if !emitted[want] {
			t.Errorf("the session did not emit %s", want)
		}
	}
	part := regexp.MustCompile(`<[^>]+>`)
	for name := range emitted {
		documented := false
		for _, d := range table {
			m := d.name.FindStringSubmatch(name)
			if m == nil {
				continue
			}
			documented = true
			i := 0
			exposed := part.ReplaceAllStringFunc(d.exposed, func(string) string {
				i++
				return m[i]
			})
			if got := obs.PrometheusName(name); got != exposed {
				t.Errorf("%s is exposed as %s; DESIGN.md §8 says %s", name, got, exposed)
			}
			break
		}
		if !documented {
			t.Errorf("metric %s is missing from DESIGN.md §8's table", name)
		}
	}
}
