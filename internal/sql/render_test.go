package sql

import (
	"strings"
	"testing"
	"unicode"
)

// recase re-renders query token by token with keywords lower-cased,
// every letter of an identifier (of a string literal instead, when
// literals is set) case-swapped, and each token on its own line.
func recase(t *testing.T, query string, literals bool) string {
	t.Helper()
	toks, err := Lex(query)
	if err != nil {
		t.Fatal(err)
	}
	swap := func(s string) string {
		return strings.Map(func(r rune) rune {
			if unicode.IsUpper(r) {
				return unicode.ToLower(r)
			}
			return unicode.ToUpper(r)
		}, s)
	}
	var b strings.Builder
	for _, tok := range toks {
		text := tok.Text
		switch tok.Kind {
		case TokKeyword:
			text = strings.ToLower(text)
		case TokIdent:
			if !literals {
				text = swap(text)
			}
			if query[tok.Pos] == '"' {
				text = `"` + text + `"`
			}
		case TokString:
			if literals {
				text = swap(text)
			}
			text = "'" + strings.ReplaceAll(text, "'", "''") + "'"
		}
		b.WriteString(text + "\n\t")
	}
	return b.String()
}

// TestRendererPins holds the one renderer to what its three callers
// need, over every SELECT of the fuzz corpora: SQL() is a fixed point of
// parsing, the fingerprint of a statement survives that round trip, and
// its shape is blind to keyword case, identifier case and whitespace
// while its literals are not blind to theirs.
func TestRendererPins(t *testing.T) {
	checked := 0
	for _, q := range corpusSelects(t) {
		stmt, err := Parse(q)
		if err != nil {
			continue
		}
		checked++
		text := stmt.SQL()
		again, err := Parse(text)
		if err != nil {
			t.Errorf("%q renders as %q, which does not parse: %v", q, text, err)
			continue
		}
		if again.SQL() != text {
			t.Errorf("%q: SQL() is not a fixed point: %q then %q", q, text, again.SQL())
		}
		shape, lits := fingerprintStmt(stmt)
		if s, l := fingerprintStmt(again); cacheKey(s, l) != cacheKey(shape, lits) {
			t.Errorf("%q: fingerprint changes across the round trip:\n%s\n%s", q, shape, s)
		}

		folded, err := Parse(recase(t, q, false))
		if err != nil {
			t.Fatalf("%q recased: %v", q, err)
		}
		if s, l := fingerprintStmt(folded); cacheKey(s, l) != cacheKey(shape, lits) {
			t.Errorf("%q: fingerprint depends on keyword or identifier case or on whitespace:\n%s\n%s", q, shape, s)
		}
		relit, err := Parse(recase(t, q, true))
		if err != nil {
			t.Fatalf("%q with literals recased: %v", q, err)
		}
		s, l := fingerprintStmt(relit)
		if s != shape {
			t.Errorf("%q: a literal's case reached the shape:\n%s\n%s", q, shape, s)
		}
		if hasLetter := strings.ContainsFunc(strings.Join(stringLiterals(t, q), ""), unicode.IsLetter); hasLetter == (cacheKey(s, l) == cacheKey(shape, lits)) {
			t.Errorf("%q: string literals with letters: %v, yet recasing them changes the cache key: %v", q, hasLetter, !hasLetter)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d corpus statements parsed", checked)
	}

	// An alias is an identifier like any other: quoted when it has to be,
	// in the fingerprint too, or one column aliased "a, company" and the
	// two columns a, company would share a cached plan.
	one, _ := fingerprintStmt(mustParse(t, `SELECT Company AS "a, company" FROM Proposal`))
	two, _ := fingerprintStmt(mustParse(t, `SELECT Company AS a, company FROM Proposal`))
	if one == two {
		t.Errorf("different statements, one fingerprint: %s", one)
	}

	// A REAL literal renders as a REAL literal: were 1.0 rendered "1",
	// it would parse back as an INTEGER, and GROUP BY matching and
	// aggregate deduplication (canonical) would take SUM(1.0) for SUM(1).
	if got := mustParse(t, `SELECT 1.0, 2.50, 1e3, 1.5e-3, 7 FROM t`).SQL(); got != "SELECT 1.0, 2.5, 1000.0, 0.0015, 7 FROM t" {
		t.Errorf("REAL literals render as %q", got)
	}
	if canonical(&Lit{Kind: LitFloat, Flt: 1}) == canonical(&Lit{Kind: LitInt, Int: 1}) {
		t.Error("1.0 and 1 render alike")
	}
}

func stringLiterals(t *testing.T, query string) []string {
	t.Helper()
	toks, err := Lex(query)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tok := range toks {
		if tok.Kind == TokString {
			out = append(out, tok.Text)
		}
	}
	return out
}

// TestFingerprintAllocations: the fingerprint of the serving benchmark's
// point lookup is built in one growing buffer — it allocates for the
// buffer and the literal slice, not once per identifier.
func TestFingerprintAllocations(t *testing.T) {
	few := mustParse(t, "SELECT Name FROM Suppliers WHERE Name = 'S00977'")
	many := mustParse(t, servingVariants["point"]+" AND Suppliers.Region = Suppliers.Region AND Suppliers.Rating = Suppliers.Rating")
	a := testing.AllocsPerRun(100, func() { fingerprintStmt(few) })
	b := testing.AllocsPerRun(100, func() { fingerprintStmt(many) })
	// Ten more identifiers may grow the buffer a few more times.
	if b > a+4 {
		t.Errorf("fingerprint allocations grow with identifiers: %.0f for 2, %.0f for 12", a, b)
	}
}

var fingerprintSink string

// BenchmarkFingerprint measures the plan-cache key of point_hot's
// statement: every request pays it, hit or miss.
func BenchmarkFingerprint(b *testing.B) {
	stmt, err := Parse(servingVariants["point"])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = cacheKey(fingerprintStmt(stmt))
	}
}
