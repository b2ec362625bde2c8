package xtree

import (
	"testing"
	"testing/quick"
)

func TestParseCmpOp(t *testing.T) {
	cases := map[string]CmpOp{
		"=": OpEQ, "==": OpEQ, "!=": OpNE, "<>": OpNE,
		"<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE,
	}
	for s, want := range cases {
		got, ok := ParseCmpOp(s)
		if !ok || got != want {
			t.Errorf("ParseCmpOp(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseCmpOp("~"); ok {
		t.Error("ParseCmpOp must reject unknown operators")
	}
}

func TestCmpOpString(t *testing.T) {
	for op, want := range map[CmpOp]string{
		OpEQ: "=", OpNE: "!=", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=",
	} {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}

func TestCompareValuesNumeric(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"2", "10", -1}, // numeric, not lexicographic
		{"10", "2", 1},
		{"3.5", "3.50", 0},
		{"0300", "300", 0}, // leading zeros compare numerically
		{"-1", "1", -1},
		{"abc", "abd", -1}, // strings lexicographic
		{"2", "abc", -1},   // mixed falls back to string: "2" < "abc"
		{"B", "A", 1},
		{"", "", 0},
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.b); got != c.want {
			t.Errorf("CompareValues(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEvalCmpAllOps(t *testing.T) {
	type row struct {
		x  string
		op CmpOp
		y  string
		ok bool
	}
	rows := []row{
		{"300", OpLT, "500", true},
		{"500", OpLT, "300", false},
		{"300", OpLE, "300", true},
		{"300", OpEQ, "300", true},
		{"300", OpNE, "300", false},
		{"500", OpGT, "300", true},
		{"500", OpGE, "500", true},
		{"AAA", OpLT, "B", true},
		{"medium", OpGE, "medium", true},
	}
	for _, r := range rows {
		if got := EvalCmp(r.x, r.op, r.y); got != r.ok {
			t.Errorf("EvalCmp(%q %s %q) = %v, want %v", r.x, r.op, r.y, got, r.ok)
		}
	}
}

// Property: Negate is an involution and EvalCmp(x, op, y) XOR
// EvalCmp(x, Negate(op), y) always holds.
func TestNegateProperty(t *testing.T) {
	ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	f := func(x, y int16, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		if op.Negate().Negate() != op {
			return false
		}
		xs, ys := itoa(int(x)), itoa(int(y))
		return EvalCmp(xs, op, ys) != EvalCmp(xs, op.Negate(), ys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Flip mirrors operands: x op y == y Flip(op) x.
func TestFlipProperty(t *testing.T) {
	ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	f := func(x, y int16, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		xs, ys := itoa(int(x)), itoa(int(y))
		return EvalCmp(xs, op, ys) == EvalCmp(ys, op.Flip(), xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// hostileAtoms is an adversarial domain for the comparison kernel: signed
// zeros, leading zeros and signs, NaN/Inf spellings, an overflowing numeral,
// a hex float, number-prefixed strings and the empty string.
var hostileAtoms = []string{"NaN", "-0", "0", "0.0", "+7", "07", "7", "1e400", "Inf", "0x1p4", "1a", "10", "2", ".5", ""}

func TestParseAtomGrammar(t *testing.T) {
	numbers := map[string]float64{
		"+5": 5, "05": 5, ".5": 0.5, "5.": 5, "1e3": 1000, "-0": 0, "0.0": 0,
		"1E-2": 0.01, "-.5e+1": -5, "1e-400": 0, "007": 7,
	}
	for s, want := range numbers {
		if a := ParseAtom(s); !a.Num || a.F != want || a.S != s {
			t.Errorf("ParseAtom(%q) = %+v, want the number %g", s, a, want)
		}
	}
	for _, s := range []string{
		"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "0x1p4", "0x10", "1e400", "-1e400",
		" 5", "5 ", "", ".", "+", "-", "+.", "e5", "5e", "5e+", "1_000", "1.2.3", "--5", "1a", "&7",
	} {
		if a := ParseAtom(s); a.Num || a.S != s {
			t.Errorf("ParseAtom(%q) = %+v, want a string", s, a)
		}
	}
}

// The kernel's order is a total preorder over the hostile domain, numbers
// sort before strings, and two Keys are equal iff Compare reports 0.
func TestCompareHostileAtoms(t *testing.T) {
	atoms := make([]Atom, len(hostileAtoms))
	for i, s := range hostileAtoms {
		atoms[i] = ParseAtom(s)
	}
	for _, a := range atoms {
		for _, b := range atoms {
			ab := a.Compare(b)
			if ab != -b.Compare(a) {
				t.Errorf("Compare(%q,%q) = %d is not antisymmetric", a.S, b.S, ab)
			}
			if (a.Key() == b.Key()) != (ab == 0) {
				t.Errorf("Key(%q)=%q, Key(%q)=%q but Compare = %d", a.S, a.Key(), b.S, b.Key(), ab)
			}
			if a.Num && !b.Num && ab >= 0 {
				t.Errorf("number %q must sort before string %q", a.S, b.S)
			}
			for _, c := range atoms {
				if ab <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("not transitive: %q <= %q <= %q but %q > %q", a.S, b.S, c.S, a.S, c.S)
				}
			}
		}
	}
	for _, eq := range [][2]string{{"-0", "0"}, {"0", "0.0"}, {"+7", "7"}, {"07", "7"}, {"7", "7e0"}} {
		if CompareValues(eq[0], eq[1]) != 0 {
			t.Errorf("%q and %q must compare equal", eq[0], eq[1])
		}
	}
	for _, lt := range [][2]string{{"2", "10"}, {"10", "1a"}, {"2", "1a"}, {"7", "NaN"}, {"1e308", "1e400"}} {
		if CompareValues(lt[0], lt[1]) >= 0 {
			t.Errorf("%q must sort before %q", lt[0], lt[1])
		}
	}
	if k := ParseAtom("-0").Key(); k != "0" {
		t.Errorf(`Key("-0") = %q, want "0"`, k)
	}
}

var atomSink Atom
var keySink string

// ParseAtom and Key allocate nothing on the hostile domain; only the
// overflowing numeral pays strconv's range error, and only a non-canonical
// numeral's Key builds a string.
func TestParseAtomDoesNotAllocate(t *testing.T) {
	for _, s := range hostileAtoms {
		if s == "1e400" {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { atomSink = ParseAtom(s) }); n != 0 {
			t.Errorf("ParseAtom(%q) allocates %v times", s, n)
		}
	}
	for _, s := range []string{"7", "-5", "0.5", "abc", "NaN", ""} {
		a := ParseAtom(s)
		if n := testing.AllocsPerRun(100, func() { keySink = a.Key() }); n != 0 {
			t.Errorf("Key(%q) allocates %v times", s, n)
		}
	}
}

func TestHolds(t *testing.T) {
	want := map[CmpOp][3]bool{ // c = -1, 0, 1
		OpEQ: {false, true, false}, OpNE: {true, false, true},
		OpLT: {true, false, false}, OpLE: {true, true, false},
		OpGT: {false, false, true}, OpGE: {false, true, true},
	}
	for op, w := range want {
		for i, c := range []int{-1, 0, 1} {
			if op.Holds(c) != w[i] {
				t.Errorf("%s.Holds(%d) = %v", op, c, !w[i])
			}
		}
	}
}

func TestIsPlainNumeral(t *testing.T) {
	for s, want := range map[string]bool{
		"7": true, "-7": true, "07": true, "5.": true, "3.25": true, "-0": true,
		".": false, "-": false, "": false, ".5": false, "+5": false, "1e3": false,
		"NaN": false, "1.2.3": false, "-.": false, "7a": false,
	} {
		if got := IsPlainNumeral(s); got != want {
			t.Errorf("IsPlainNumeral(%q) = %v, want %v", s, got, want)
		}
		if want && !ParseAtom(s).Num {
			t.Errorf("plain numeral %q must be a number to ParseAtom", s)
		}
	}
}
