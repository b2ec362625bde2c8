package main

import (
	"fmt"
	"math/rand"
	"time"

	"mix"
	"mix/internal/eager"
	"mix/internal/qdom"
	"mix/internal/relstore"
	"mix/internal/workload"
)

// browse: one client in a closed loop opens the Q1 view over 2000
// customers × 5 orders and walks a skewed number of CustRec siblings,
// reading each customer and its first order. It is the paper's lazy
// navigation path: every Open re-sorts the source rows, the view was planned
// at set-up, and no wire is involved.
type browse struct {
	seed int64
	med  *mix.Mediator
	db   *relstore.DB
	pool []int // walk lengths, cycled
	// walked records each session's walk length and digest for the check.
	walked []walkRec
}

type walkRec struct {
	k      int
	digest uint64
}

const (
	browseCustomers = 2000
	browseOrders    = 5
	// browsePool is the number of walk lengths cycled. It is not a multiple
	// of 100, so the 99th percentile falls inside one stratum of the walk
	// length distribution rather than on the edge between two.
	browsePool = 250
)

func newBrowse(seed int64) (bench, error) {
	med, db, err := scaleMediator(browseCustomers, browseOrders, seed, mix.Config{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &browse{seed: seed, med: med, db: db, pool: walkLengths(rng, browsePool, 600)}, nil
}

func (b *browse) warm() error {
	_, _, _, err := b.session(3, nil)
	return err
}

// session opens the view and walks k siblings. It returns the walk's
// digest, the time to the first CustRec and the session's time. With p set
// it opens through the traced pipeline instead of the mediator.
func (b *browse) session(k int, p *pipeline) (uint64, time.Duration, time.Duration, error) {
	d := newDigest()
	start := time.Now()
	var doc *qdom.Document
	var first *qdom.Node
	var err error
	walk := func() { browseWalk(first, k, &d, plainStep) }
	if p == nil {
		if doc, err = b.med.Open("rootv"); err == nil {
			first = doc.Root().Down()
		}
	} else {
		doc, first, err = p.open("rootv")
		walk = func() { p.tr.do("engine.drain", func() { browseWalk(first, k, &d, tracedStep(p.tr)) }) }
	}
	if err != nil {
		return 0, 0, 0, err
	}
	toFirst := time.Since(start)
	walk()
	err = doc.Err()
	doc.Close()
	return d.h, toFirst, time.Since(start), err
}

// op runs the i-th session and records its walk for the check.
func (b *browse) op(i int, p *pipeline) (uint64, time.Duration, time.Duration, error) {
	k := b.pool[i%len(b.pool)]
	h, first, total, err := b.session(k, p)
	if err == nil && p == nil {
		b.walked = append(b.walked, walkRec{k, h})
	}
	return h, first, total, err
}

func (b *browse) measure(dur time.Duration) (*e2e, error) {
	e := &e2e{opName: "session"}
	st0 := b.med.Stats()
	e.closedLoop(dur, func(i int) (time.Duration, time.Duration, bool, error) {
		_, first, total, err := b.op(i, nil)
		return first, total, false, err
	})
	e.tuples = b.med.Stats().TuplesShipped - st0.TuplesShipped
	return e, nil
}

func (b *browse) trace(dur time.Duration) (*layers, error) {
	l := &layers{tr: newTracer()}
	twin := workload.ScaleDB("db1", browseCustomers, browseOrders, b.seed)
	p := newPipeline(b.med, mix.Config{}, []*relstore.DB{b.db}, twin, l)
	st0 := b.med.Stats()
	err := l.passes(dur, func(i int) (uint64, error) {
		s := l.tr.begin("op.session")
		defer l.tr.end(s)
		h, _, _, err := b.op(i, p)
		return h, err
	}, func() error {
		st1 := b.med.Stats()
		l.shipped, l.queries = st1.TuplesShipped-st0.TuplesShipped, st1.QueriesReceived-st0.QueriesReceived
		return nil
	}, func(i int) (uint64, error) {
		h, _, _, err := b.op(i, nil)
		return h, err
	})
	return l, err
}

// check replays every recorded walk over the eagerly evaluated view.
func (b *browse) check() (int, []string) {
	v, _ := b.med.View("rootv")
	tree, err := eager.Eval(v.ExecPlan, b.med.Catalog())
	if err != nil {
		return max(len(b.walked), 1), []string{"FAIL eager evaluation: " + err.Error()}
	}
	want := map[int]uint64{}
	wrong := 0
	for _, w := range b.walked {
		h, ok := want[w.k]
		if !ok {
			h = treeWalk(tree, w.k)
			want[w.k] = h
		}
		if h != w.digest {
			wrong++
		}
	}
	return wrong, []string{checkLine("browse walks match eager.Eval of the view", wrong, len(b.walked))}
}

func (b *browse) close() {}

func checkLine(what string, wrong, total int) string {
	if wrong > 0 {
		return fmt.Sprintf("FAIL %s: %d of %d wrong", what, wrong, total)
	}
	return fmt.Sprintf("ok %s (%d checked)", what, total)
}
