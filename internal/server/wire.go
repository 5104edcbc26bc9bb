package server

import (
	"math"

	"pcqe/internal/conf"
	"pcqe/internal/core"
	"pcqe/internal/obs"
	"pcqe/internal/relation"
)

// Wire types: the JSON contract between pcqed and its clients. Field
// names are the stable protocol; renaming one is a breaking change.
//
// Two confidentiality rules shape WireResponse. Withheld rows cross the
// wire only as a count — the whole point of the β filter is that this
// identity must not see them, and a count still tells the client
// whether an improvement proposal is worth asking about. And proposals
// are referenced by an opaque per-session handle: the increments'
// per-tuple prices are shown (the session is being asked to buy them),
// but Apply takes only the handle, so a session can never submit a
// hand-built plan.

// HandshakeRequest opens a session.
type HandshakeRequest struct {
	User    string      `json:"user"`
	Purpose string      `json:"purpose"`
	Budget  *WireBudget `json:"budget,omitempty"`
}

// HandshakeResponse returns the bearer token and the policy resolution.
type HandshakeResponse struct {
	Token         string  `json:"token"`
	Beta          float64 `json:"beta"`
	PolicyApplied bool    `json:"policy_applied"`
}

// WireBudget is a solver allowance on the wire (0 = keep default).
type WireBudget struct {
	Workers       int   `json:"workers,omitempty"`
	MaxNodes      int   `json:"max_nodes,omitempty"`
	MaxPivots     int   `json:"max_pivots,omitempty"`
	MaxSteps      int   `json:"max_steps,omitempty"`
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// QueryRequest evaluates one query under the session identity.
type QueryRequest struct {
	Query       string      `json:"query"`
	MinFraction float64     `json:"min_fraction,omitempty"`
	Budget      *WireBudget `json:"budget,omitempty"`
}

// WireRow is one released row with its confidence.
type WireRow struct {
	Values     []relation.Value `json:"values"`
	Confidence float64          `json:"confidence"`
}

// WireIncrement is one priced confidence raise in a proposal.
type WireIncrement struct {
	Var  int     `json:"var"`
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Cost float64 `json:"cost"`
}

// WireProposal describes an improvement plan offered to the session.
type WireProposal struct {
	ID             string          `json:"id"`
	Cost           float64         `json:"cost"`
	Solver         string          `json:"solver"`
	Partial        bool            `json:"partial"`
	Skipped        int             `json:"skipped,omitempty"`
	DegradedGroups int             `json:"degraded_groups,omitempty"`
	Increments     []WireIncrement `json:"increments"`
}

// WireSpan is one node of the request's phase-timing tree.
type WireSpan struct {
	Name     string           `json:"name"`
	Micros   int64            `json:"micros"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Status   string           `json:"status,omitempty"`
	Children []*WireSpan      `json:"children,omitempty"`
}

// WireResponse is the outcome of one query evaluation.
type WireResponse struct {
	Columns       []string      `json:"columns"`
	Released      []WireRow     `json:"released"`
	WithheldCount int           `json:"withheld_count"`
	Threshold     float64       `json:"threshold"`
	PolicyApplied bool          `json:"policy_applied"`
	Degraded      string        `json:"degraded,omitempty"`
	Partial       bool          `json:"partial,omitempty"`
	Proposal      *WireProposal `json:"proposal,omitempty"`
	Version       int64         `json:"version"`
	Timings       *WireSpan     `json:"timings,omitempty"`
}

// ApplyRequest spends a stashed proposal by handle.
type ApplyRequest struct {
	ProposalID string `json:"proposal_id"`
}

// ApplyResponse reports the apply outcome.
type ApplyResponse struct {
	Applied bool    `json:"applied"`
	Cost    float64 `json:"cost"`
	Version int64   `json:"version"`
}

// ExplainRequest asks for the query plan without evaluating.
type ExplainRequest struct {
	Query string `json:"query"`
}

// ExplainResponse carries the annotated plan.
type ExplainResponse struct {
	Plan        string `json:"plan"`
	LineageHint string `json:"lineage_hint,omitempty"`
	Version     int64  `json:"version"`
}

// wireConf sanitizes a confidence for the wire: a NaN or ±Inf float
// fails the whole encoding/json document, so confidences are clamped
// into [0, 1] (conf.Clamp maps NaN to 0). Finite in-range values pass
// through bit-identical.
func wireConf(c float64) float64 {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 || c > 1 {
		return conf.Clamp(c)
	}
	return c
}

// toWire converts an engine response for the session, applying the
// confidentiality rules above. propID is the stashed handle for
// resp.Proposal ("" when there is none).
func toWire(resp *core.Response, propID string) *WireResponse {
	w := &WireResponse{
		Columns:       make([]string, 0, resp.Schema.Len()),
		Released:      make([]WireRow, 0, len(resp.Released)),
		WithheldCount: len(resp.Withheld),
		Threshold:     wireConf(resp.Threshold),
		PolicyApplied: resp.PolicyApplied,
		Version:       resp.Version,
		Timings:       toWireSpan(resp.Timings),
	}
	for _, c := range resp.Schema.Columns {
		w.Columns = append(w.Columns, c.QualifiedName())
	}
	for _, row := range resp.Released {
		w.Released = append(w.Released, WireRow{
			Values:     row.Tuple.Values,
			Confidence: wireConf(row.Confidence),
		})
	}
	if resp.Degraded != nil {
		w.Degraded = resp.Degraded.Error()
	}
	if p := resp.Proposal; p != nil {
		wp := &WireProposal{
			ID: propID, Cost: p.Cost(), Solver: p.Solver(),
			Partial: p.Partial(), Skipped: p.Skipped(), DegradedGroups: p.DegradedGroups(),
		}
		w.Partial = p.Partial()
		for _, inc := range p.Increments() {
			wp.Increments = append(wp.Increments, WireIncrement{
				Var: int(inc.Var), From: wireConf(inc.From), To: wireConf(inc.To), Cost: inc.Cost,
			})
		}
		w.Proposal = wp
	}
	return w
}

// toWireSpan converts a span tree (durations in microseconds; an
// in-flight span reports its elapsed time so far).
func toWireSpan(s *obs.Span) *WireSpan {
	if s == nil {
		return nil
	}
	w := &WireSpan{
		Name:   s.Name(),
		Micros: s.Duration().Microseconds(),
		Status: s.Status(),
		Attrs:  s.Attrs(),
	}
	for _, c := range s.Children() {
		w.Children = append(w.Children, toWireSpan(c))
	}
	return w
}

// WireAuditEvent is one journal entry scoped to the session's user.
type WireAuditEvent struct {
	Seq           int                 `json:"seq"`
	Kind          core.AuditEventKind `json:"kind"`
	Purpose       string              `json:"purpose,omitempty"`
	Query         string              `json:"query,omitempty"`
	Beta          float64             `json:"beta,omitempty"`
	Released      int                 `json:"released,omitempty"`
	Withheld      int                 `json:"withheld,omitempty"`
	Cost          float64             `json:"cost,omitempty"`
	Partial       bool                `json:"partial,omitempty"`
	Detail        string              `json:"detail,omitempty"`
	ReadVersion   int64               `json:"read_version,omitempty"`
	CommitVersion int64               `json:"commit_version,omitempty"`
}

// AuditResponse is the session-scoped journal tail.
type AuditResponse struct {
	Events []WireAuditEvent `json:"events"`
	Total  int              `json:"total"`
}
