package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pcqe/internal/strategy"
)

// FuzzWire feeds arbitrary bytes to the request decoder (readJSON) as
// each of the four POST bodies — handshake, query, explain and apply —
// and, where the body carries a budget, to effectiveBudget under a
// session default and with and without a server ceiling. Every input
// must pass three checks: nothing panics; a body either is refused (an
// error, which the handlers answer with 400) or yields a budget whose
// every field is non-negative, within the ceiling wherever one is set,
// and whose Timeout is exactly timeout_ms milliseconds when the
// override sets it and no ceiling clips it; and a body naming a field
// its request type does not have is never accepted.
func FuzzWire(f *testing.F) {
	golden, err := os.ReadFile("testdata/wire_response.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, seed := range []string{
		`{"user":"sue","purpose":"analysis"}`,
		`{"user":"mark","purpose":"investment","budget":{"workers":2,"max_steps":100,"timeout_ms":250}}`,
		`{"query":"SELECT 1","min_fraction":1,"budget":{"timeout_ms":18446744073710}}`,
		`{"query":"SELECT 1","budget":{"timeout_ms":9223372036855}}`,
		`{"query":"SELECT 1","budget":{"timeout_ms":9223372036854}}`,
		`{"query":"SELECT 1","budget":{"max_nodes":-1,"max_pivots":4096}}`,
		`{"QUERY":"SELECT 1","Budget":{"Timeout_MS":5}}`,
		`{"proposal_id":"p1"}`,
		`{"query":"SELECT 1","min_fracton":1}`,
		`{"budget":{"timeout_ms":1,"bogus":2}}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	def := strategy.Budget{Timeout: 2 * time.Second, MaxSteps: 10}
	ceilings := []strategy.Budget{{}, {Timeout: time.Second, Workers: 4, MaxNodes: 1000, MaxPivots: 1 << 12, MaxSteps: 50}}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range []any{&HandshakeRequest{}, &QueryRequest{}, &ExplainRequest{}, &ApplyRequest{}} {
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			if readJSON(httptest.NewRecorder(), r, req) != nil {
				continue
			}
			if name := unknownField(body, reflect.TypeOf(req).Elem()); name != "" {
				t.Fatalf("%T accepted unknown field %q in %q", req, name, body)
			}
			var over *WireBudget
			switch req := req.(type) {
			case *HandshakeRequest:
				over = req.Budget
			case *QueryRequest:
				over = req.Budget
			default:
				continue
			}
			for _, ceiling := range ceilings {
				b, err := effectiveBudget(def, over, ceiling)
				if err != nil {
					continue
				}
				checkBudget(t, b, over, ceiling)
			}
		}
	})
}

// checkBudget holds an accepted budget to the wire contract.
func checkBudget(t *testing.T, b strategy.Budget, over *WireBudget, ceiling strategy.Budget) {
	t.Helper()
	fields := []struct {
		name      string
		got, ceil int64
	}{
		{"Timeout", int64(b.Timeout), int64(ceiling.Timeout)},
		{"Workers", int64(b.Workers), int64(ceiling.Workers)},
		{"MaxNodes", int64(b.MaxNodes), int64(ceiling.MaxNodes)},
		{"MaxPivots", int64(b.MaxPivots), int64(ceiling.MaxPivots)},
		{"MaxSteps", int64(b.MaxSteps), int64(ceiling.MaxSteps)},
	}
	for _, f := range fields {
		if f.got < 0 || f.ceil > 0 && f.got > f.ceil {
			t.Fatalf("budget %s = %d outside [0, ceiling %d] for override %+v", f.name, f.got, f.ceil, over)
		}
	}
	if over == nil || over.TimeoutMillis <= 0 {
		return
	}
	// Compared in milliseconds: the product is what could wrap.
	clipped := ceiling.Timeout > 0 && over.TimeoutMillis > int64(ceiling.Timeout/time.Millisecond)
	if !clipped && (b.Timeout%time.Millisecond != 0 || int64(b.Timeout/time.Millisecond) != over.TimeoutMillis) {
		t.Fatalf("timeout_ms %d became Timeout %v", over.TimeoutMillis, b.Timeout)
	}
}

// unknownField returns a key of the body's top-level object (or of its
// budget object) that names no field of typ, matching the way
// encoding/json does (case-insensitively), or "" when there is none.
func unknownField(body []byte, typ reflect.Type) string {
	var obj map[string]json.RawMessage
	if json.NewDecoder(bytes.NewReader(body)).Decode(&obj) != nil {
		return ""
	}
	for key, val := range obj {
		field, ok := jsonField(typ, key)
		if !ok {
			return key
		}
		if field.Type == reflect.TypeOf(&WireBudget{}) {
			if name := unknownField(val, field.Type.Elem()); name != "" {
				return name
			}
		}
	}
	return ""
}

// jsonField finds the struct field whose json name matches key.
func jsonField(typ reflect.Type, key string) (reflect.StructField, bool) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if strings.EqualFold(name, key) {
			return f, true
		}
	}
	return reflect.StructField{}, false
}
