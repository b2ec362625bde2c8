package engine_test

import (
	"fmt"
	"testing"

	"mix/internal/engine"
	"mix/internal/source"
	"mix/internal/testleak"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xmlio"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// Sequential-equivalence coverage: a parallel execution must return exactly
// the sequential result — same tuples, same order, same rendered bytes — at
// every parallelism level, because the exchange layer only overlaps *when*
// work happens, never *what* order it is delivered in.

var parLevels = []int{0, 1, 2, 3, 8}

// batchLevels runs each parallel check at the browsing window (one row) and
// at a wide one: parallelism is a policy for how join inputs drain, so it
// must hold at both.
var batchLevels = []int{1, 64}

func materializeAt(t *testing.T, plan *translate.Result, cat *source.Catalog, opts engine.Options) string {
	t.Helper()
	prog, err := engine.CompileWith(plan.Plan, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Run()
	defer res.Close()
	out := res.Materialize().Pretty()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelFigure7Identical pins the Figure 7 golden query: identical
// rendered results at every parallelism level.
func TestParallelFigure7Identical(t *testing.T) {
	defer testleak.Check(t)()
	cat, _ := workload.PaperCatalog()
	tr := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	checkIdenticalAtLevels(t, tr, cat)
}

// checkIdenticalAtLevels compares every parallelism level against the
// sequential run at the same batch window.
func checkIdenticalAtLevels(t *testing.T, tr *translate.Result, cat *source.Catalog) {
	t.Helper()
	for _, b := range batchLevels {
		want := materializeAt(t, tr, cat, engine.Options{BatchExec: b})
		for _, p := range parLevels[1:] {
			if got := materializeAt(t, tr, cat, engine.Options{Parallelism: p, BatchExec: b}); got != want {
				t.Fatalf("batch %d parallelism %d diverged:\n--- got ---\n%s\n--- want ---\n%s", b, p, got, want)
			}
		}
	}
}

// twoSourceCatalog builds two XML documents joined on a key child.
func twoSourceCatalog(t *testing.T, nA, nB int) *source.Catalog {
	t.Helper()
	cat := source.NewCatalog()
	addItems := func(id string, n int, stride int) {
		xml := "<doc>"
		for i := 0; i < n; i++ {
			xml += fmt.Sprintf("<item><k>k%d</k><v>%s%d</v></item>", i*stride, id, i)
		}
		xml += "</doc>"
		root, err := xmlio.ParseWith(xml, xmlio.Options{IDPrefix: id})
		if err != nil {
			t.Fatal(err)
		}
		root.ID = xtree.ID("&" + id)
		cat.AddXMLDoc("&"+id, root)
	}
	addItems("a", nA, 1)
	addItems("b", nB, 2) // every second key matches
	return cat
}

const joinQuery = `FOR $A IN document(&a)/item, $B IN document(&b)/item WHERE $A/k = $B/k RETURN <R> $A $B </R>`

// TestParallelJoinIdentical pins a hash equi-join over two documents.
func TestParallelJoinIdentical(t *testing.T) {
	defer testleak.Check(t)()
	cat := twoSourceCatalog(t, 40, 30)
	tr := translate.MustTranslate(xquery.MustParse(joinQuery), "result")
	checkIdenticalAtLevels(t, tr, cat)
}

// TestParallelMetricsIdentical asserts the per-operator tuple counts are the
// same work at every level: parallelism moves work across goroutines, it
// must not create or skip any.
func TestParallelMetricsIdentical(t *testing.T) {
	defer testleak.Check(t)()
	cat, _ := workload.PaperCatalog()
	tr := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	counts := func(p, b int) string {
		prog, err := engine.CompileWith(tr.Plan, cat, engine.Options{Parallelism: p, BatchExec: b})
		if err != nil {
			t.Fatal(err)
		}
		res, m := prog.RunWithMetrics()
		defer res.Close()
		res.Materialize()
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return m.String()
	}
	for _, b := range batchLevels {
		want := counts(0, b)
		for _, p := range parLevels[1:] {
			if got := counts(p, b); got != want {
				t.Fatalf("batch %d parallelism %d metrics diverged: got %s, want %s", b, p, got, want)
			}
		}
	}
}

// countingDoc counts Open calls — the laziness probe.
type countingDoc struct {
	inner source.Doc
	opens int
}

func (d *countingDoc) RootID() string { return d.inner.RootID() }
func (d *countingDoc) Open() (source.ElemCursor, error) {
	d.opens++
	return d.inner.Open()
}

// TestParallelEmptyLeftLaziness reproduces PR 2's empty-left guarantee under
// parallelism: a join whose probe side is empty never opens the build side,
// because the build drain is kicked only once a first probe tuple exists.
// A semi-join whose kept side is empty likewise never opens its filtering
// side.
func TestParallelEmptyLeftLaziness(t *testing.T) {
	defer testleak.Check(t)()
	cond := xmas.NewVarVarCond("$KA", xtree.OpEQ, "$KB")
	keys := func(src string, doc, item, key xmas.Var) xmas.Op {
		return &xmas.GetD{
			In:   &xmas.GetD{In: &xmas.MkSrc{SrcID: src, Out: doc}, From: doc, Path: xmas.ParsePath("item"), Out: item},
			From: item, Path: xmas.ParsePath("item.k"), Out: key,
		}
	}
	plans := map[string]xmas.Op{
		"join": translate.MustTranslate(xquery.MustParse(joinQuery), "result").Plan,
		"semijoin": &xmas.TD{In: &xmas.SemiJoin{
			L:    keys("&a", "$DA", "$IA", "$KA"),
			R:    keys("&b", "$DB", "$IB", "$KB"),
			Cond: &cond,
			Keep: xmas.KeepLeft,
		}, V: "$IA"},
	}
	for name, plan := range plans {
		for _, b := range batchLevels {
			for _, p := range []int{1, 4} {
				cat := source.NewCatalog()
				emptyRoot, err := xmlio.ParseWith("<doc></doc>", xmlio.Options{IDPrefix: "a"})
				if err != nil {
					t.Fatal(err)
				}
				emptyRoot.ID = "&a"
				cat.AddXMLDoc("&a", emptyRoot)

				bRoot, err := xmlio.ParseWith("<doc><item><k>k0</k><v>b0</v></item></doc>", xmlio.Options{IDPrefix: "b"})
				if err != nil {
					t.Fatal(err)
				}
				bRoot.ID = "&b"
				cat.AddXMLDoc("&b", bRoot)
				inner, err := cat.Resolve("&b")
				if err != nil {
					t.Fatal(err)
				}
				counting := &countingDoc{inner: inner}
				cat.AddDoc("&b", counting)

				prog, err := engine.CompileWith(plan, cat, engine.Options{Parallelism: p, BatchExec: b})
				if err != nil {
					t.Fatal(err)
				}
				res := prog.Run()
				if n := res.Materialize().String(); res.Err() != nil {
					t.Fatalf("%s batch %d parallelism %d: %v (%s)", name, b, p, res.Err(), n)
				}
				res.Close()
				if counting.opens != 0 {
					t.Fatalf("%s batch %d parallelism %d: empty probe side still opened the build side %d times", name, b, p, counting.opens)
				}
			}
		}
	}
}

// TestParallelEarlyClose abandons a partially navigated parallel result;
// Close must cancel and join every producer goroutine (the deferred leak
// check is the assertion).
func TestParallelEarlyClose(t *testing.T) {
	defer testleak.Check(t)()
	cat := twoSourceCatalog(t, 200, 150)
	tr := translate.MustTranslate(xquery.MustParse(joinQuery), "result")
	for _, b := range batchLevels {
		prog, err := engine.CompileWith(tr.Plan, cat, engine.Options{Parallelism: 8, ExchangeBuffer: 4, BatchExec: b})
		if err != nil {
			t.Fatal(err)
		}
		res := prog.Run()
		if _, ok := res.Root.Kids().Get(0); !ok {
			t.Fatalf("batch %d: no first result tuple", b)
		}
		res.Close()
		res.Close() // idempotent
	}
}
