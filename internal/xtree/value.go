package xtree

import (
	"cmp"
	"strconv"
	"strings"
)

// CmpOp is a comparison operator usable in selection and join conditions
// (paper Section 3, operators 3 and 5: =, ≠, <, >, ≤, ≥).
type CmpOp int

// The comparison operators of the XMAS select and join conditions.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

var cmpOpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (op CmpOp) String() string {
	if int(op) < len(cmpOpNames) {
		return cmpOpNames[op]
	}
	return "?"
}

// ParseCmpOp parses the textual form of a comparison operator.
func ParseCmpOp(s string) (CmpOp, bool) {
	switch s {
	case "=", "==":
		return OpEQ, true
	case "!=", "<>":
		return OpNE, true
	case "<":
		return OpLT, true
	case "<=":
		return OpLE, true
	case ">":
		return OpGT, true
	case ">=":
		return OpGE, true
	}
	return 0, false
}

// Negate returns the complement operator (used by rewrite-rule sanity checks).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	default:
		return OpLT
	}
}

// Flip returns the operator with its operands swapped: a op b ≡ b Flip(op) a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	default:
		return op
	}
}

// Holds reports whether op holds between two operands whose Compare
// result is c.
func (op CmpOp) Holds(c int) bool {
	switch op {
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpGE:
		return c >= 0
	}
	return false
}

// Atom is a value from D parsed once for comparison. This is the one
// comparison kernel of the system: selection, both join algorithms, SQL
// pushdown, ORDER BY, shard routing and statistics all order values by
// Atom.Compare and hash them by Atom.Key.
//
// Num reports that the atom is a number, with value F. For an atom parsed
// from text S is that text; an atom built from a typed number may leave S
// empty.
type Atom struct {
	S   string
	F   float64
	Num bool
}

// ParseAtom parses s. It is a number iff it matches
// [+-]?(digits[.digits?]|.digits)([eE][+-]?digits)? and its value is a
// finite float64, so +5, 05, .5, 5. and 1e3 are numbers while NaN, Inf,
// 0x1p4, 1e400, " 5" and "" are strings. Text outside the grammar is
// rejected without calling strconv, so ParseAtom does not allocate (only a
// numeral that overflows float64 pays strconv's range error).
func ParseAtom(s string) Atom {
	if isNumber(s) {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Atom{S: s, F: f, Num: true}
		}
	}
	return Atom{S: s}
}

// isNumber matches the number grammar of ParseAtom.
func isNumber(s string) bool {
	i := skipSign(s, 0)
	n := skipDigits(s, i)
	digits := n > i
	if n < len(s) && s[n] == '.' {
		m := skipDigits(s, n+1)
		digits = digits || m > n+1
		n = m
	}
	if !digits {
		return false
	}
	if n < len(s) && (s[n] == 'e' || s[n] == 'E') {
		e := skipSign(s, n+1)
		if n = skipDigits(s, e); n == e {
			return false
		}
	}
	return n == len(s)
}

func skipSign(s string, i int) int {
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		return i + 1
	}
	return i
}

func skipDigits(s string, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// IsPlainNumeral reports whether s is written -?digits[.digits?], the form
// the XMAS, SQL and XQuery printers leave unquoted because their lexers read
// it back as a number. Every plain numeral is a number to ParseAtom; the
// other numbers (+5, .5, 1e3) are printed quoted, which the sources compare
// the same way.
func IsPlainNumeral(s string) bool {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	n := skipDigits(s, i)
	if n == i {
		return false
	}
	if n < len(s) && s[n] == '.' {
		n = skipDigits(s, n+1)
	}
	return n == len(s)
}

// Compare orders atoms: every number sorts before every string, numbers
// compare by value (-0 equals 0) and strings bytewise. This is a total
// preorder.
func (a Atom) Compare(b Atom) int {
	switch {
	case a.Num && b.Num:
		return cmp.Compare(a.F, b.F)
	case a.Num:
		return -1
	case b.Num:
		return 1
	}
	return strings.Compare(a.S, b.S)
}

// Key is the atom's hash key: two keys are equal iff Compare reports the
// atoms equal. A number keys as its shortest decimal form (07, +7 and 7.0
// key as 7, -0 as 0), which never matches the key of a string since the
// string would then be a number; a string keys as itself.
func (a Atom) Key() string {
	if !a.Num {
		return a.S
	}
	f := a.F
	if f == 0 {
		f = 0 // -0 keys as 0
	}
	var buf [32]byte
	k := strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
	if string(k) == a.S {
		return a.S
	}
	return string(k)
}

// CompareValues compares two values from D by the Atom order: numerically
// when both are numbers, so conditions like value < 500 behave as a user
// expects, otherwise numbers first and strings bytewise.
func CompareValues(x, y string) int {
	return ParseAtom(x).Compare(ParseAtom(y))
}

// EvalCmp applies op to the atomic values x and y.
func EvalCmp(x string, op CmpOp, y string) bool {
	return op.Holds(CompareValues(x, y))
}
