// Package relation implements the in-memory relational substrate of the
// PCQE framework: typed values, schemas, tuples that carry confidence and
// lineage, tables, a catalog that assigns lineage variables to base
// tuples, scalar expressions, hash indexes, and batch-at-a-time
// relational operators that propagate lineage (join ⇒ AND, duplicate
// elimination/union ⇒ OR).
//
// Concurrency: a Catalog and its tables follow the single-writer model
// common to embedded engines — any number of goroutines may evaluate
// queries concurrently as long as no goroutine mutates the catalog
// (Insert/Update/Delete/SetConfidence/CreateTable) at the same time;
// mutations require external synchronization. The strategy solvers and
// the PCQE engine honor this: improvement plans are computed on
// immutable snapshots and applied in a single goroutine.
package relation

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates column types.
type Type uint8

// Supported column types.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt
	TypeFloat
	TypeString
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOLEAN"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeString:
		return "TEXT"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	typ Type
	b   bool
	i   int64
	f   float64
	s   string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a BOOLEAN value.
func Bool(b bool) Value { return Value{typ: TypeBool, b: b} }

// Int returns an INTEGER value.
func Int(i int64) Value { return Value{typ: TypeInt, i: i} }

// Float returns a REAL value.
func Float(f float64) Value { return Value{typ: TypeFloat, f: f} }

// String_ returns a TEXT value. (Named with a trailing underscore to
// avoid colliding with the fmt.Stringer method.)
func String_(s string) Value { return Value{typ: TypeString, s: s} }

// Type reports the value's type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// AsBool returns the boolean payload; ok is false for non-boolean values.
func (v Value) AsBool() (val, ok bool) { return v.b, v.typ == TypeBool }

// AsInt returns the integer payload, converting REAL by truncation.
func (v Value) AsInt() (int64, bool) {
	switch v.typ {
	case TypeInt:
		return v.i, true
	case TypeFloat:
		return int64(v.f), true
	}
	return 0, false
}

// AsFloat returns the numeric payload as float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.typ {
	case TypeInt:
		return float64(v.i), true
	case TypeFloat:
		return v.f, true
	}
	return 0, false
}

// AsString returns the text payload; ok is false for non-text values.
func (v Value) AsString() (string, bool) { return v.s, v.typ == TypeString }

// String renders the value for display.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.b {
			return "true"
		}
		return "false"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	}
	return "?"
}

// MarshalJSON renders the value as its native JSON counterpart: NULL
// as null, booleans, integers and strings as themselves. Without this
// a Value marshals as "{}" (every field is unexported), which silently
// discards the payload of any row serialized to a wire client. REAL
// values need one carve-out: JSON has no NaN or ±Inf literal, and
// encoding/json fails the whole document on them, so non-finite floats
// marshal as their quoted render ("NaN", "+Inf", "-Inf") — lossless to
// a reader, and one degenerate cell cannot poison an entire response.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.typ {
	case TypeNull:
		return []byte("null"), nil
	case TypeBool:
		if v.b {
			return []byte("true"), nil
		}
		return []byte("false"), nil
	case TypeInt:
		return strconv.AppendInt(nil, v.i, 10), nil
	case TypeFloat:
		if math.IsNaN(v.f) || math.IsInf(v.f, 0) {
			return strconv.AppendQuote(nil, v.String()), nil
		}
		return strconv.AppendFloat(nil, v.f, 'g', -1, 64), nil
	case TypeString:
		return json.Marshal(v.s)
	}
	return nil, fmt.Errorf("relation: cannot marshal value of unknown type %d", uint8(v.typ))
}

// UnmarshalJSON is the inverse of MarshalJSON, typing by JSON shape:
// null, booleans and strings map directly; numbers become INTEGER when
// they are integral literals (no fraction or exponent) and REAL
// otherwise. The non-finite carve-out is intentionally one-way — a
// quoted "NaN" decodes as TEXT, since a reader cannot tell it from a
// genuine string; wire clients that care keep the column type.
func (v *Value) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("relation: unmarshaling value: %w", err)
	}
	switch x := raw.(type) {
	case nil:
		*v = Null()
	case bool:
		*v = Bool(x)
	case string:
		*v = String_(x)
	case json.Number:
		if i, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
			*v = Int(i)
			return nil
		}
		f, err := x.Float64()
		if err != nil {
			return fmt.Errorf("relation: unmarshaling number %q: %w", x.String(), err)
		}
		*v = Float(f)
	default:
		return fmt.Errorf("relation: cannot unmarshal %s into a scalar value", data)
	}
	return nil
}

// Key returns a string usable as a map key that distinguishes values of
// different types and payloads (used for hashing, DISTINCT and GROUP BY).
func (v Value) Key() string {
	switch v.typ {
	case TypeNull:
		return "n"
	case TypeBool:
		if v.b {
			return "b1"
		}
		return "b0"
	case TypeInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case TypeFloat:
		// Integral floats hash like ints so 1 and 1.0 group together.
		if v.f == float64(int64(v.f)) {
			return "i" + strconv.FormatInt(int64(v.f), 10)
		}
		return "f" + strconv.FormatFloat(v.f, 'b', -1, 64)
	case TypeString:
		return "s" + v.s
	}
	return "?"
}

// Compare orders two values. NULL sorts first; numeric types compare by
// value across INT/REAL; comparing incompatible types returns an error.
func Compare(a, b Value) (int, error) {
	if a.typ == TypeNull || b.typ == TypeNull {
		switch {
		case a.typ == TypeNull && b.typ == TypeNull:
			return 0, nil
		case a.typ == TypeNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	af, aNum := a.AsFloat()
	bf, bNum := b.AsFloat()
	if aNum && bNum {
		return cmpFloat(af, bf), nil
	}
	if a.typ != b.typ {
		return 0, fmt.Errorf("relation: cannot compare %s with %s", a.typ, b.typ)
	}
	switch a.typ {
	case TypeBool:
		switch {
		case !a.b && b.b:
			return -1, nil
		case a.b && !b.b:
			return 1, nil
		}
		return 0, nil
	case TypeString:
		return strings.Compare(a.s, b.s), nil
	}
	return 0, fmt.Errorf("relation: cannot compare %s values", a.typ)
}

// cmpFloat is Compare on two numeric payloads (a NaN orders equal to
// everything, as neither < nor > holds).
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports whether two values are equal under Compare semantics;
// incompatible types are simply unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// ParseValue converts a text literal to the given type.
func ParseValue(s string, t Type) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "null") {
		return Null(), nil
	}
	switch t {
	case TypeBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("relation: bad boolean %q: %w", s, err)
		}
		return Bool(b), nil
	case TypeInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: bad integer %q: %w", s, err)
		}
		return Int(i), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: bad real %q: %w", s, err)
		}
		return Float(f), nil
	case TypeString:
		return String_(s), nil
	}
	return Value{}, fmt.Errorf("relation: cannot parse into %s", t)
}
