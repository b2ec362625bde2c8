package relstore

import (
	"math"
	"testing"

	"mix/internal/xtree"
)

// Typed datums order exactly like the text the mediator receives for them:
// for every pair of hostile atoms and every typed form each parses to,
// Compare agrees with xtree.CompareValues on the text.
func TestDatumKindsAgreeWithKernel(t *testing.T) {
	domain := []string{"NaN", "-0", "0", "0.0", "+7", "07", "7", "1e400", "Inf", "0x1p4", "1a", "10", "2", ".5", ""}
	forms := func(s string) []Datum {
		ds := []Datum{Str(s)}
		for _, typ := range []Type{TInt, TFloat} {
			if d, err := ParseDatum(typ, s); err == nil {
				ds = append(ds, d)
			}
		}
		return ds
	}
	for _, x := range domain {
		for _, y := range domain {
			want := xtree.CompareValues(x, y)
			for _, dx := range forms(x) {
				for _, dy := range forms(y) {
					if got := Compare(dx, dy); got != want {
						t.Errorf("Compare(%s %q, %s %q) = %d, want %d", dx.Kind, x, dy.Kind, y, got, want)
					}
				}
			}
		}
	}
	for _, s := range []string{"NaN", "Inf", "1e400", "0x1p4", " 5", ""} {
		if _, err := ParseDatum(TFloat, s); err == nil {
			t.Errorf("ParseDatum(FLOAT, %q) must fail", s)
		}
	}
	// A non-finite FLOAT compares as the string it ships as.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := Float(f)
		if Compare(d, Str(d.String())) != 0 || Compare(d, Int(7)) <= 0 {
			t.Errorf("FLOAT %v must compare as the string %q", f, d.String())
		}
	}
	negZero := Float(math.Copysign(0, -1))
	if Compare(negZero, Int(0)) != 0 || negZero.Atom().Key() != Int(0).Atom().Key() {
		t.Error("FLOAT -0 must equal and key like INT 0")
	}
}
