package engine

import (
	"errors"
	"testing"

	"mix/internal/xmas"
	"mix/internal/xtree"
)

// pullCounter counts scalar pulls on a cursor (window-growth assertions).
type pullCounter struct {
	in    Cursor
	pulls int
}

func (p *pullCounter) Next() (Tuple, bool, error) {
	p.pulls++
	return p.in.Next()
}

func tupleSource(vals ...string) ([]xmas.Var, Cursor) {
	schema := []xmas.Var{"$v"}
	i := 0
	return schema, cursorFunc(func() (Tuple, bool, error) {
		if i >= len(vals) {
			return Tuple{}, false, nil
		}
		v := vals[i]
		i++
		return NewTuple(schema, []Value{NodeVal{E: NewLeaf("", v)}}), true, nil
	})
}

func TestBatchInputDeliverThenFail(t *testing.T) {
	schema := []xmas.Var{"$v"}
	i := 0
	boom := errors.New("boom")
	src := cursorFunc(func() (Tuple, bool, error) {
		if i == 2 {
			return Tuple{}, false, boom
		}
		i++
		return NewTuple(schema, []Value{NodeVal{E: NewLeaf("", "x")}}), true, nil
	})
	bi := &batchInput{in: src}
	b, ok, err := bi.pull(8)
	if err != nil || !ok || b.Len() != 2 {
		t.Fatalf("first pull = (%d, %v, %v), want 2 rows before the error", b.Len(), ok, err)
	}
	if _, ok, err := bi.pull(8); ok || !errors.Is(err, boom) {
		t.Fatalf("second pull = (%v, %v), want the held error", ok, err)
	}
	if _, ok, err := bi.pull(8); ok || err != nil {
		t.Fatalf("third pull = (%v, %v), want clean end", ok, err)
	}
}

// TestVecSelectFirstAnswerWindow pins the adaptive window: the first scalar
// Next through a vectorized select pulls exactly one input tuple, so the
// first answer never waits for a whole batch to fill.
func TestVecSelectFirstAnswerWindow(t *testing.T) {
	_, src := tupleSource("a", "b", "c", "d", "e", "f", "g", "h")
	pc := &pullCounter{in: src}
	alwaysTrue := xmas.Cond{
		Left:  xmas.Operand{IsConst: true, Const: "1"},
		Op:    xtree.OpEQ,
		Right: xmas.Operand{IsConst: true, Const: "1"},
	}
	cur := newVecSelect(pc, alwaysTrue, 64)
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("first Next = (%v, %v)", ok, err)
	}
	if pc.pulls != 1 {
		t.Fatalf("first answer pulled %d input tuples, want exactly 1", pc.pulls)
	}
	// Subsequent demand grows the window geometrically toward the cap.
	for i := 0; i < 7; i++ {
		if _, ok, err := cur.Next(); !ok || err != nil {
			t.Fatalf("Next %d = (%v, %v)", i, ok, err)
		}
	}
	if pc.pulls > 8+1 {
		t.Fatalf("8 answers cost %d pulls; window not bounded", pc.pulls)
	}
}

// TestVecHashJoinEmptyLeftLaziness pins the build-side laziness invariant:
// an empty probe side must never open the build side.
func TestVecHashJoinEmptyLeftLaziness(t *testing.T) {
	schema := []xmas.Var{"$l"}
	empty := cursorFunc(func() (Tuple, bool, error) { return Tuple{}, false, nil })
	rightOpened := false
	right := func() Cursor {
		rightOpened = true
		return cursorFunc(func() (Tuple, bool, error) { return Tuple{}, false, nil })
	}
	out := append(append([]xmas.Var{}, schema...), "$r")
	seq := newExecState(Options{})
	cur := newVecHashJoin(empty, newBuildSide(seq, false, right, drainBatch), out, "$l", "$r", 16)
	if _, ok, err := cur.Next(); ok || err != nil {
		t.Fatalf("join over empty left = (%v, %v)", ok, err)
	}
	if rightOpened {
		t.Fatal("empty left side opened the build side")
	}
	cur2 := newVecNLJoin(cursorFunc(func() (Tuple, bool, error) { return Tuple{}, false, nil }), newBuildSide(seq, false, right, drainBatch), out, nil, 16)
	if _, ok, err := cur2.Next(); ok || err != nil {
		t.Fatalf("NL join over empty left = (%v, %v)", ok, err)
	}
	if rightOpened {
		t.Fatal("empty left side materialized the NL right side")
	}
}

// TestCountingCursorBatchFace verifies metrics count whole chunks through the
// batch face, matching what the scalar face would have counted.
func TestCountingCursorBatchFace(t *testing.T) {
	m := NewMetrics()
	_, src := tupleSource("a", "b", "c", "d", "e")
	cc := &countingCursor{in: src, c: m.counter("src")}
	bi := &batchInput{in: cc}
	total := 0
	for {
		b, ok, err := bi.pull(2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		total += b.Len()
	}
	if total != 5 || m.Count("src") != 5 {
		t.Fatalf("batch face delivered %d, counted %d; want 5/5", total, m.Count("src"))
	}
}

// TestVecCursorBatchFaceSlicing checks NextBatch serves buffered rows in
// caller-sized slices without re-producing.
func TestVecCursorBatchFaceSlicing(t *testing.T) {
	produced := 0
	schema := []xmas.Var{"$v"}
	v := newVecCursor(64, func(max int) (Batch, bool, error) {
		if produced > 0 {
			return Batch{}, false, nil
		}
		produced++
		col := make([]Value, 5)
		for i := range col {
			col[i] = NodeVal{E: NewLeaf("", "x")}
		}
		return Batch{schema: schema, cols: [][]Value{col}, n: 5}, true, nil
	}, nil)
	sizes := []int{2, 2, 2}
	got := 0
	for _, want := range sizes {
		b, ok, err := v.NextBatch(2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Len() > want {
			t.Fatalf("NextBatch(2) returned %d rows", b.Len())
		}
		got += b.Len()
	}
	if got != 5 || produced != 1 {
		t.Fatalf("sliced delivery got %d rows over %d productions; want 5 rows, 1 production", got, produced)
	}
}
