package engine

import (
	"errors"
	"fmt"
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

// countedSet is a nested-source binding whose rows bind v to vals, counting
// the rows pulled from it.
func countedSet(v xmas.Var, vals []Value, pulls *int) SetVal {
	schema := []xmas.Var{v}
	i := 0
	return SetVal{Schema: schema, Tuples: NewLazyList(func() (Tuple, bool) {
		if i >= len(vals) {
			return Tuple{}, false
		}
		*pulls++
		i++
		return NewTuple(schema, []Value{vals[i-1]}), true
	})}
}

// atomElems builds one element <r>a</r> per atom, with ids prefix.0, prefix.1…
func atomElems(prefix string, atoms ...string) []Value {
	vals := make([]Value, len(atoms))
	for i, a := range atoms {
		vals[i] = NodeVal{E: NewElem(fmt.Sprintf("%s.%d", prefix, i), "r", ListOf(NewLeaf("", a)))}
	}
	return vals
}

// TestVecSelectFirstAnswerWindow pins the adaptive window on every
// non-blocking operator, at the default options, at BatchExec 1 and at the
// mix default cap of 64: the compiled cursor is the columnar one, and its
// first Next pulls exactly one row from its (probe, kept) input and produces
// exactly one row, so the first answer never waits for a whole batch to fill.
func TestVecSelectFirstAnswerWindow(t *testing.T) {
	probe := &xmas.NestedSrc{V: "$P", Vars: []xmas.Var{"$v"}}
	build := &xmas.NestedSrc{V: "$B", Vars: []xmas.Var{"$w"}}
	parts := &xmas.NestedSrc{V: "$P", Vars: []xmas.Var{"$s"}}
	eq := xmas.NewVarVarCond("$v", xtree.OpEQ, "$w")
	ge := xmas.NewVarVarCond("$v", xtree.OpGE, "$w")
	wrapV := xmas.ChildSpec{V: "$v", Wrap: true}
	cases := []struct {
		name string
		op   xmas.Op
	}{
		{"select", &xmas.Select{In: probe, Cond: xmas.NewVarConstCond("$v", xtree.OpGE, "1")}},
		{"select-over-product", &xmas.Select{In: &xmas.Join{L: probe, R: build}, Cond: ge}},
		{"hash-join", &xmas.Join{L: probe, R: build, Cond: &eq}},
		{"nl-join", &xmas.Join{L: probe, R: build, Cond: &ge}},
		{"product", &xmas.Join{L: probe, R: build}},
		{"semi-join", &xmas.SemiJoin{L: probe, R: build, Cond: &eq, Keep: xmas.KeepLeft}},
		{"cat", &xmas.Cat{In: probe, X: wrapV, Y: wrapV, Out: "$c"}},
		{"crElt", &xmas.CrElt{In: probe, Label: "e", SkolemFn: "f", GroupVars: []xmas.Var{"$v"}, Children: wrapV, Out: "$e"}},
		{"apply", &xmas.Apply{In: parts, InpVar: "$s", Out: "$a",
			Plan: &xmas.TD{In: &xmas.NestedSrc{V: "$s", Vars: []xmas.Var{"$v"}}, V: "$v"}}},
		{"getD", &xmas.GetD{In: probe, From: "$v", Path: xmas.Path{"r"}, Out: "$d"}},
	}
	atoms := []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	for _, opts := range []Options{{}, {BatchExec: 1}, {BatchExec: 64}} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/BatchExec=%d", tc.name, opts.BatchExec), func(t *testing.T) {
				op, err := compile(tc.op, nil)
				if err != nil {
					t.Fatal(err)
				}
				probeVals := atomElems("&p", atoms...)
				probeVar := xmas.Var("$v")
				if tc.name == "apply" {
					probeVar = "$s"
					for i, v := range probeVals {
						probeVals[i] = SetVal{Schema: []xmas.Var{"$v"}, Tuples: ListOf(NewTuple([]xmas.Var{"$v"}, []Value{v}))}
					}
				}
				probePulls, buildPulls := 0, 0
				ctx := &Ctx{opts: opts, exec: newExecState(opts), nested: map[xmas.Var]SetVal{
					"$P": countedSet(probeVar, probeVals, &probePulls),
					"$B": countedSet("$w", atomElems("&b", atoms...), &buildPulls),
				}}
				cur := op(ctx)
				if _, ok := cur.(BatchCursor); !ok {
					t.Fatalf("compiled cursor is %T, want a BatchCursor", cur)
				}
				if _, ok, err := cur.Next(); !ok || err != nil {
					t.Fatalf("first Next = (%v, %v)", ok, err)
				}
				if probePulls != 1 {
					t.Fatalf("first answer pulled %d input rows, want exactly 1", probePulls)
				}
				if vc, ok := cur.(*vecCursor); !ok || vc.buf.Len() != 1 {
					t.Fatalf("first answer is not one buffered row of a vecCursor (%T)", cur)
				}
				closeCursor(cur)
			})
		}
	}
}

// TestVecWindowGrowth pins the window's growth: the first answer pulls one
// input row even under a wide cap, and demand past it doubles the window
// toward the cap, so n answers cost O(n) input pulls.
func TestVecWindowGrowth(t *testing.T) {
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
	for i := 1; i < 8; i++ {
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
	cur := newVecHashJoin(empty, newBuildSide(seq, false, right), out, "$l", "$r", 16)
	if _, ok, err := cur.Next(); ok || err != nil {
		t.Fatalf("join over empty left = (%v, %v)", ok, err)
	}
	if rightOpened {
		t.Fatal("empty left side opened the build side")
	}
	cur2 := newVecNLJoin(cursorFunc(func() (Tuple, bool, error) { return Tuple{}, false, nil }), newBuildSide(seq, false, right), out, nil, 16)
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

// hostileAtoms is the hostile-atom domain of the end-to-end differential
// test: numbers in several spellings, strings that strconv would read as
// numbers, and strings that collate differently from their numeric reading.
var hostileAtoms = []string{"NaN", "-0", "0", "0.0", "+7", "07", "7", "1e400", "Inf", "0x1p4", "1a", "10", "2", ".5", ""}

// hostileVals binds each hostile atom as a leaf with an object id, plus the
// values without an atom: an element with two children (compared by id), a
// list, and an unbound element.
func hostileVals(prefix string) []Value {
	vals := make([]Value, 0, len(hostileAtoms)+3)
	for i, a := range hostileAtoms {
		vals = append(vals, NodeVal{E: NewLeaf(fmt.Sprintf("&%s%d", prefix, i), a)})
	}
	return append(vals,
		NodeVal{E: NewElem("&"+prefix+"two", "p", ListOf(NewLeaf("", "1"), NewLeaf("", "2")))},
		ListVal{L: ListOf(NewLeaf("", "7"))},
		NodeVal{})
}

var allCmpOps = []xtree.CmpOp{xtree.OpEQ, xtree.OpNE, xtree.OpLT, xtree.OpLE, xtree.OpGT, xtree.OpGE}

// TestCondEvalMatchesEvalCond checks the columnar condition evaluator's fast
// paths against evalCond on the gathered row, for every operator and operand
// shape over the hostile-atom domain.
func TestCondEvalMatchesEvalCond(t *testing.T) {
	schema := []xmas.Var{"$a", "$b"}
	var bb batchBuilder
	for _, a := range hostileVals("a") {
		for _, b := range hostileVals("b") {
			bb.add(NewTuple(schema, []Value{a, b}))
		}
	}
	batch := bb.batch()
	var conds []xmas.Cond
	for _, op := range allCmpOps {
		conds = append(conds, xmas.NewVarVarCond("$a", op, "$b"))
		for _, c := range hostileAtoms {
			conds = append(conds,
				xmas.Cond{Left: xmas.ConstOperand(c), Op: op, Right: xmas.VarOperand("$b")},
				xmas.NewVarConstCond("$a", op, c))
		}
	}
	for i := range hostileAtoms {
		id := fmt.Sprintf("&a%d", i)
		conds = append(conds,
			xmas.NewVarConstCond("$a", xtree.OpEQ, id),
			xmas.Cond{Left: xmas.ConstOperand(id), Op: xtree.OpEQ, Right: xmas.VarOperand("$a")})
	}
	for _, cond := range conds {
		ce := newCondEval(cond, schema)
		if ce.generic {
			t.Fatalf("%v: took the generic path, want a fast path", cond)
		}
		for r := 0; r < batch.Len(); r++ {
			row := batch.Row(r)
			if got, want := ce.eval(batch, r), evalCond(cond, row); got != want {
				t.Errorf("%v on %v: condEval %v, evalCond %v", cond, row, got, want)
			}
		}
	}
}

// TestVecNLJoinPreResolvedBranches checks the NL join's two pre-resolved
// right-column paths (column-column and constant-column) against its
// merged-row path, reached by the same condition with its operands swapped,
// and against evalCond on every merged pair.
func TestVecNLJoinPreResolvedBranches(t *testing.T) {
	lSchema, rSchema := []xmas.Var{"$a"}, []xmas.Var{"$b"}
	schema := []xmas.Var{"$a", "$b"}
	var left, right []Tuple
	for _, v := range hostileVals("a") {
		left = append(left, NewTuple(lSchema, []Value{v}))
	}
	for _, v := range hostileVals("b") {
		right = append(right, NewTuple(rSchema, []Value{v}))
	}
	join := func(cond xmas.Cond) []string {
		seq := newExecState(Options{})
		build := newBuildSide(seq, false, func() Cursor { return &sliceCursor{tuples: right} })
		cur := newVecNLJoin(&sliceCursor{tuples: left}, build, schema, &cond, 64)
		rows, err := drain(cur)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = row.String()
		}
		return out
	}
	want := func(cond xmas.Cond) []string {
		var out []string
		for _, l := range left {
			for _, r := range right {
				if m := l.Merge(schema, r); evalCond(cond, m) {
					out = append(out, m.String())
				}
			}
		}
		return out
	}
	for _, op := range allCmpOps {
		pairs := []struct{ fast, merged xmas.Cond }{
			{xmas.NewVarVarCond("$a", op, "$b"), xmas.NewVarVarCond("$b", op.Flip(), "$a")},
		}
		for _, c := range hostileAtoms {
			pairs = append(pairs, struct{ fast, merged xmas.Cond }{
				xmas.Cond{Left: xmas.ConstOperand(c), Op: op, Right: xmas.VarOperand("$b")},
				xmas.NewVarConstCond("$b", op.Flip(), c),
			})
		}
		for _, p := range pairs {
			ref := want(p.fast)
			if got := join(p.fast); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("%v: pre-resolved path\n got %v\nwant %v", p.fast, got, ref)
			}
			if got := join(p.merged); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("%v: merged-row path\n got %v\nwant %v", p.merged, got, ref)
			}
		}
	}
}
