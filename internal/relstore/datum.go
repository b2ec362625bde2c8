// Package relstore is the in-memory relational database substrate that plays
// the role of the paper's underlying relational sources. It offers exactly
// the capabilities the paper assumes of such sources (Section 1): it accepts
// an SQL query and returns a cursor that delivers result tuples one at a
// time ("relational databases support a basic form of partial result
// evaluation"), and nothing more — in particular no context mechanism, which
// is why the mediator needs decontextualization.
//
// Every tuple a cursor ships is counted, so the experiments can measure the
// mediator↔source transfer that MIX's lazy evaluation and query pushdown
// minimize.
package relstore

import (
	"fmt"
	"math"
	"strconv"

	"mix/internal/xtree"
)

// Type is a column type.
type Type int

// The supported column types.
const (
	TInt Type = iota
	TFloat
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	default:
		return "STRING"
	}
}

// Datum is one typed value. The zero Datum is the empty string.
type Datum struct {
	Kind Type
	I    int64
	F    float64
	S    string
}

// Int makes an integer datum.
func Int(v int64) Datum { return Datum{Kind: TInt, I: v} }

// Float makes a float datum.
func Float(v float64) Datum { return Datum{Kind: TFloat, F: v} }

// Str makes a string datum.
func Str(v string) Datum { return Datum{Kind: TString, S: v} }

// String renders the datum's value (not its type).
func (d Datum) String() string {
	switch d.Kind {
	case TInt:
		return strconv.FormatInt(d.I, 10)
	case TFloat:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	default:
		return d.S
	}
}

// Atom converts d to the comparison kernel's atom. INT and FLOAT datums are
// numbers, except that a NaN or infinite FLOAT compares as its string form —
// what the mediator sees once the datum is shipped. A STRING datum is parsed
// as text.
func (d Datum) Atom() xtree.Atom {
	switch {
	case d.Kind == TInt:
		return xtree.Atom{F: float64(d.I), Num: true}
	case d.Kind == TFloat && !math.IsNaN(d.F) && !math.IsInf(d.F, 0):
		return xtree.Atom{F: d.F, Num: true}
	case d.Kind == TFloat:
		return xtree.Atom{S: d.String()}
	}
	return xtree.ParseAtom(d.S)
}

// Compare orders two datums by xtree.Atom.Compare, so pushed-down and
// mediator-evaluated predicates agree.
func Compare(a, b Datum) int { return a.Atom().Compare(b.Atom()) }

// ParseDatum converts a literal string to a datum of the column type.
func ParseDatum(t Type, s string) (Datum, error) {
	switch t {
	case TInt:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Datum{}, fmt.Errorf("relstore: %q is not an integer", s)
		}
		return Int(v), nil
	case TFloat:
		a := xtree.ParseAtom(s)
		if !a.Num {
			return Datum{}, fmt.Errorf("relstore: %q is not a float", s)
		}
		return Float(a.F), nil
	default:
		return Str(s), nil
	}
}
