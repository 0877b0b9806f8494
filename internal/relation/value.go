// Package relation implements the relational data model underlying DVMS:
// typed values, schemas, tuples, and deterministic in-memory relations.
//
// The paper (§2.1) models both the data domain and the visual domain (marks
// relations, the pixels relation) with ordinary relations; every other
// subsystem in this repository is built on the types defined here.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by DeVIL relations.
type Kind uint8

// Supported value kinds. KindNull is the type of the SQL NULL literal and of
// any column whose type has not been constrained yet.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is int or float.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a dynamically typed scalar. The zero Value is NULL.
//
// Value contains only comparable fields so it can be used directly as a map
// key (hash aggregation, hash joins, and distinct all rely on this).
type Value struct {
	kind Kind
	i    int64 // int payload; bool payload as 0/1
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload. The second result is false when the
// value is not a bool.
func (v Value) AsBool() (bool, bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.i != 0, true
}

// AsInt returns the value as an int64, coercing floats with a fractional
// truncation and bools to 0/1. The second result is false for NULL/strings
// that do not parse. The int case is small enough to inline into callers'
// loops; every other kind goes through asIntSlow.
func (v Value) AsInt() (int64, bool) {
	if v.kind == KindInt {
		return v.i, true
	}
	return v.asIntSlow()
}

func (v Value) asIntSlow() (int64, bool) {
	switch v.kind {
	case KindFloat:
		return int64(v.f), true
	case KindBool:
		return v.i, true
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	default:
		return 0, false
	}
}

// AsFloat returns the value as a float64 with the same coercions as AsInt.
// Like AsInt, the float case inlines and the rest go through asFloatSlow.
func (v Value) AsFloat() (float64, bool) {
	if v.kind == KindFloat {
		return v.f, true
	}
	return v.asFloatSlow()
}

func (v Value) asFloatSlow() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindBool:
		return float64(v.i), true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsString returns the string payload; non-strings are rendered with String().
func (v Value) AsString() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// Truthy reports whether the value counts as true in a WHERE clause:
// bool true, nonzero numbers, and nonempty strings. NULL is not truthy.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// String renders the value for display and for deterministic hashing keys.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// Equal reports SQL-style equality with numeric cross-kind comparison
// (Int(3) equals Float(3.0)). NULL equals NULL here, which is what hash
// grouping wants; expression-level `=` handles three-valued logic separately.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare defines a total order over values used by ORDER BY, MIN/MAX, and
// deterministic relation sorting. Kinds order as
// NULL < bool < numeric < string; numerics compare by magnitude across
// int/float.
func (v Value) Compare(o Value) int {
	vr, or := v.rank(), o.rank()
	if vr != or {
		return cmpInt(vr, or)
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool && o.kind == KindBool:
		return cmpInt64(v.i, o.i)
	case v.kind == KindString:
		return strings.Compare(v.s, o.s)
	default: // both numeric
		if v.kind == KindInt && o.kind == KindInt {
			return cmpInt64(v.i, o.i)
		}
		vf, _ := v.AsFloat()
		of, _ := o.AsFloat()
		switch {
		case vf < of:
			return -1
		case vf > of:
			return 1
		default:
			return 0
		}
	}
}

// rank buckets kinds so cross-kind comparisons are total: NULL(0) < bool(1)
// < numeric(2) < string(3).
func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

// Key returns a canonical comparable form used for hashing: numerics that
// hold integral values are normalized to the int representation so that
// Int(3) and Float(3) collide as SQL expects.
func (v Value) Key() Value {
	if v.kind == KindFloat && v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) &&
		v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
		return Int(int64(v.f))
	}
	return v
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
