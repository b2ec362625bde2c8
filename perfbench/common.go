package main

import (
	"math"
	"math/rand"
	"time"

	"mix"
	"mix/internal/qdom"
	"mix/internal/relstore"
	"mix/internal/workload"
	"mix/internal/xtree"
)

// scaleMediator builds a mediator over workload.ScaleDB with the paper's Q1
// view registered as rootv, the way mixserve does.
func scaleMediator(nCustomers, ordersPer int, seed int64, cfg mix.Config) (*mix.Mediator, *relstore.DB, error) {
	db := workload.ScaleDB("db1", nCustomers, ordersPer, seed)
	med := mix.NewWith(cfg)
	med.AddRelationalSource(db)
	if err := med.AliasSource("&root1", "&db1.customer"); err != nil {
		return nil, nil, err
	}
	if err := med.AliasSource("&root2", "&db1.orders"); err != nil {
		return nil, nil, err
	}
	if _, err := med.DefineView("rootv", workload.Q1); err != nil {
		return nil, nil, err
	}
	return med, db, nil
}

// stratified returns n draws of a distribution given by its quantile
// function, one from the middle of each of n equal-probability strata, in
// seeded order. Every seed sees the same shape, so percentiles move with the
// program and not with the draw.
func stratified(rng *rand.Rand, n int, quantile func(u float64) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = quantile((float64(i) + 0.5) / float64(n))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// walkLengths draws skewed sibling counts: mostly a few, with a tail of
// hundreds (a Pareto tail capped at max).
func walkLengths(rng *rand.Rand, n, max int) []int {
	vals := stratified(rng, n, func(u float64) float64 {
		return math.Min(float64(max), math.Ceil(math.Pow(1-u, -1/0.8)))
	})
	out := make([]int, n)
	for i, v := range vals {
		out[i] = int(v)
	}
	return out
}

// digest hashes what a walk or an answer showed the client.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) add(s string) {
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
	d.h ^= 0xff
	d.h *= 1099511628211
}

// treeHash hashes an answer tree's labels and shape: two answers hash alike
// exactly when they serialize to the same bytes (up to hash collisions),
// and hashing allocates nothing inside the timed loop.
func treeHash(t *xtree.Node) uint64 {
	d := newDigest()
	var walk func(n *xtree.Node)
	walk = func(n *xtree.Node) {
		if n == nil {
			return
		}
		d.add(n.Label)
		d.h ^= uint64(len(n.Children))
		d.h *= 1099511628211
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	return d.h
}

// readTuple reads a wrapper tuple element: every column's label and value
// (the paper's fl and fv commands). step wraps each navigation call.
func readTuple(n *qdom.Node, d *digest, step func(func() *qdom.Node) *qdom.Node) {
	for col := step(n.Down); col != nil; col = step(col.Right) {
		d.add(col.Label())
		if leaf := step(col.Down); leaf != nil {
			v, _ := leaf.Value()
			d.add(v)
		}
	}
}

// browseWalk visits k CustRec siblings from first: into each customer and
// its first OrderInfo, reading every value.
func browseWalk(first *qdom.Node, k int, d *digest, step func(func() *qdom.Node) *qdom.Node) {
	n := first
	for i := 0; i < k && n != nil; i++ {
		d.add(n.Label())
		c := step(n.Down)
		if c != nil {
			d.add(c.Label())
			readTuple(c, d, step)
			if oi := step(c.Right); oi != nil {
				d.add(oi.Label())
				if t := step(oi.Down); t != nil {
					d.add(t.Label())
					readTuple(t, d, step)
				}
			}
		}
		if i+1 < k {
			n = step(n.Right)
		}
	}
}

// answer finishes a query operation started at start: the time to the
// first answer node, then the whole answer tree. The traced pipeline has
// already reached the first node inside its engine.first_answer span; here
// it materializes inside an engine.drain span.
func answer(doc *qdom.Document, start time.Time, p *pipeline) (*xtree.Node, time.Duration, time.Duration, error) {
	var tree *xtree.Node
	materialize := func() { tree = doc.Materialize() }
	if p == nil {
		doc.Root().Down()
	} else {
		materialize = func() { p.tr.do("engine.drain", func() { tree = doc.Materialize() }) }
	}
	first := time.Since(start)
	materialize()
	total := time.Since(start)
	err := doc.Err()
	doc.Close()
	return tree, first, total, err
}

// plainStep is the untraced navigation step.
func plainStep(f func() *qdom.Node) *qdom.Node { return f() }

// tracedStep wraps a navigation step in a qdom.step span.
func tracedStep(tr *tracer) func(func() *qdom.Node) *qdom.Node {
	return func(f func() *qdom.Node) *qdom.Node {
		s := tr.begin("qdom.step")
		n := f()
		tr.end(s)
		return n
	}
}

// treeWalk is browseWalk over a materialized tree: the reference.
func treeWalk(root *xtree.Node, k int) uint64 {
	d := newDigest()
	tuple := func(t *xtree.Node) {
		for _, col := range t.Children {
			d.add(col.Label)
			if len(col.Children) > 0 {
				d.add(col.Children[0].Label)
			}
		}
	}
	for i, n := range root.Children {
		if i == k {
			break
		}
		d.add(n.Label)
		if len(n.Children) == 0 {
			continue
		}
		c := n.Children[0]
		d.add(c.Label)
		tuple(c)
		if len(n.Children) > 1 {
			oi := n.Children[1]
			d.add(oi.Label)
			if len(oi.Children) > 0 {
				d.add(oi.Children[0].Label)
				tuple(oi.Children[0])
			}
		}
	}
	return d.h
}
