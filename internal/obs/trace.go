package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed phase of a request: a name, a wall-clock interval,
// integer attributes (work counters such as solver nodes or Shannon
// pivots), an optional status note (e.g. a budget-exhaustion cause),
// and child spans for sub-phases. Spans form the tree surfaced as
// Response.Timings and dumped by `pcqe -trace`.
//
// A Span is concurrency-safe: parallel D&C group workers attach
// children to the same parent. All methods are no-ops on a nil *Span,
// so instrumented code runs unchanged when tracing is off.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	status   string
	attrs    map[string]int64
	children []*Span
}

// NewSpan starts a standalone root span (not registered with any
// tracer). The engine uses it to populate Response.Timings even when
// no tracer is attached.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts and attaches a sub-span. Safe to call from
// multiple goroutines; returns nil when s is nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End freezes the span's duration. Idempotent: only the first call
// takes effect.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Duration returns the frozen duration of an ended span, or the time
// elapsed so far for a span still in flight.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SetAttr records an integer attribute (work counters, sizes).
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]int64{}
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// Attr returns the named attribute (0 when absent or s is nil).
func (s *Span) Attr(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// Attrs returns a copy of all recorded attributes (nil when none).
func (s *Span) Attrs() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.attrs) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.attrs))
	for k, v := range s.attrs {
		out[k] = v
	}
	return out
}

// SetStatus records a status note, e.g. the cause of a degraded solve.
func (s *Span) SetStatus(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.status = msg
	s.mu.Unlock()
}

// Status returns the status note ("" when unset).
func (s *Span) Status() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// Children returns a copy of the child-span list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first span named name in the subtree rooted at s
// (depth-first, s itself included), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Tree renders the span tree as an indented text listing with
// durations, attributes and status notes — the `pcqe -trace` output.
func (s *Span) Tree() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.tree(&b, 0)
	return b.String()
}

func (s *Span) tree(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name())
	if s.Ended() {
		fmt.Fprintf(b, " %s", s.Duration().Round(time.Microsecond))
	} else {
		b.WriteString(" (in flight)")
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		keys := make([]string, 0, len(s.attrs))
		for k := range s.attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, s.attrs[k])
		}
		fmt.Fprintf(b, " {%s}", strings.Join(parts, " "))
	}
	status := s.status
	s.mu.Unlock()
	if status != "" {
		fmt.Fprintf(b, " [%s]", status)
	}
	b.WriteString("\n")
	for _, c := range s.Children() {
		c.tree(b, depth+1)
	}
}

// Tracer starts root spans. The engine asks its tracer for one span
// per request; implementations decide retention.
type Tracer interface {
	StartSpan(name string) *Span
}

// spanKey is the context key carrying the active span.
type spanKey struct{}

// ContextWithSpan returns a context carrying span as the active span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFromContext returns the active span, or nil when the context
// carries none — and every Span method is nil-safe, so callers chain
// SpanFromContext(ctx).StartChild(...) unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
