package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mix"
	"mix/internal/qdom"
	"mix/internal/relstore"
	"mix/internal/workload"
)

// query: one client in a closed loop over 200 customers × 5 orders runs a
// seeded mix of four query shapes and materializes every answer. It is the
// one workload where planning (parse, compose, rewrite, sqlgen, verify,
// compile) is a large share of the first answer.
type query struct {
	seed int64
	med  *mix.Mediator
	db   *relstore.DB
	pool []queryOp
	// view is an open rootv session whose CustRec nodes the in-place
	// queries start from.
	view  *qdom.Document
	nodes []*qdom.Node
	done  []answerRec
}

type queryOp struct {
	shape string // composed, range, key or inplace
	text  string
	cust  int // inplace: index of the CustRec node
}

// answerRec is one measured answer: the pool entry and the answer's hash.
type answerRec struct {
	op   int
	hash uint64
}

const (
	queryCustomers = 200
	queryOrders    = 5
	queryPool      = 400
)

func newQuery(seed int64) (bench, error) {
	med, db, err := scaleMediator(queryCustomers, queryOrders, seed, mix.Config{})
	if err != nil {
		return nil, err
	}
	q := &query{seed: seed, med: med, db: db, pool: queryMix(rand.New(rand.NewSource(seed)))}
	q.view, q.nodes, err = openNodes(med)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// queryMix draws an equal share of each shape, in seeded order. The
// quantities that set an answer's size (thresholds, range widths, in-place
// templates) are spread evenly over their grids, so every seed runs the same
// mix of answer sizes; positions and constants are random.
func queryMix(rng *rand.Rand) []queryOp {
	const perShape = queryPool / 4
	pool := make([]queryOp, 0, queryPool)
	for i := 0; i < perShape; i++ {
		// the paper's Figure 12 composition: customers with an order above
		// a threshold, 5% to 40% of them
		pool = append(pool, queryOp{shape: "composed", text: fmt.Sprintf(`FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > %d
RETURN $R`, 1000*(90+i%10))})
		// a name range of 1 to 20 customers, the Q2 shape
		lo := rng.Intn(queryCustomers - 20)
		pool = append(pool, queryOp{shape: "range", text: fmt.Sprintf(`FOR $P IN document(rootv)/CustRec
WHERE $P/customer/name >= "Corp%06d" AND $P/customer/name < "Corp%06d"
RETURN $P`, lo, lo+1+i%20)})
		// a key lookup on customer id
		pool = append(pool, queryOp{shape: "key", text: fmt.Sprintf(`FOR $P IN document(rootv)/CustRec
WHERE $P/customer/id = "C%06d"
RETURN $P`, rng.Intn(queryCustomers))})
	}
	for _, text := range inPlaceQueries(rng, perShape) {
		// an in-place query from a CustRec reached by navigation
		pool = append(pool, queryOp{shape: "inplace", text: text, cust: rng.Intn(queryCustomers)})
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// inPlaceQueries draws n workload.RandomInPlaceQuery CustRec queries with
// its templates in equal shares: a draw whose template is full is redrawn.
// The value threshold of the filtering template is then spread evenly over
// the generator's range [0, 250000), so every seed filters alike.
func inPlaceQueries(rng *rand.Rand, n int) []string {
	template := func(q string) int {
		switch {
		case strings.Contains(q, "Picked"):
			return 2
		case strings.Contains(q, "WHERE"):
			return 1
		}
		return 0
	}
	var count [3]int
	perTemplate := (n + 2) / 3
	out := make([]string, 0, n)
	for len(out) < n {
		q, _ := workload.RandomInPlaceQuery(rng, "CustRec")
		t := template(q)
		if count[t] == perTemplate {
			continue
		}
		if t == 1 {
			at := strings.LastIndex(q, "< ") + len("< ")
			end := at + strings.IndexByte(q[at:], ' ')
			q = fmt.Sprintf("%s%d%s", q[:at], (2*count[t]+1)*250000/(2*perTemplate), q[end:])
		}
		count[t]++
		out = append(out, q)
	}
	return out
}

// openNodes opens rootv on med and navigates to every CustRec.
func openNodes(med *mix.Mediator) (*qdom.Document, []*qdom.Node, error) {
	doc, err := med.Open("rootv")
	if err != nil {
		return nil, nil, err
	}
	var nodes []*qdom.Node
	for n := doc.Root().Down(); n != nil; n = n.Right() {
		nodes = append(nodes, n)
	}
	if err := doc.Err(); err != nil {
		return nil, nil, err
	}
	return doc, nodes, nil
}

// warm runs the first operation of each shape.
func (q *query) warm() error {
	done := map[string]bool{}
	for _, op := range q.pool {
		if done[op.shape] {
			continue
		}
		done[op.shape] = true
		if _, _, _, err := q.run(op, nil); err != nil {
			return err
		}
	}
	return nil
}

// run issues one operation and materializes its answer. It returns the
// answer's hash, the time to the first answer node and the total. With p
// set it goes through the traced pipeline instead of the mediator.
func (q *query) run(op queryOp, p *pipeline) (uint64, time.Duration, time.Duration, error) {
	start := time.Now()
	var doc *qdom.Document
	var err error
	switch {
	case p == nil && op.shape == "inplace":
		doc, err = q.med.QueryFrom(q.nodes[op.cust], op.text)
	case p == nil:
		doc, err = q.med.Query(op.text)
	case op.shape == "inplace":
		doc, _, err = p.queryFrom(q.nodes[op.cust], op.text)
	default:
		doc, _, err = p.query(op.text)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	tree, first, total, err := answer(doc, start, p)
	if err != nil {
		return 0, 0, 0, err
	}
	return treeHash(tree), first, total, nil
}

// op runs the i-th pool operation and records its answer for the check.
func (q *query) op(i int, p *pipeline) (uint64, time.Duration, time.Duration, error) {
	idx := i % len(q.pool)
	h, first, total, err := q.run(q.pool[idx], p)
	if err == nil && p == nil {
		q.done = append(q.done, answerRec{idx, h})
	}
	return h, first, total, err
}

func (q *query) measure(dur time.Duration) (*e2e, error) {
	e := &e2e{opName: "full_answer"}
	st0 := q.med.Stats()
	e.closedLoop(dur, func(i int) (time.Duration, time.Duration, bool, error) {
		_, first, total, err := q.op(i, nil)
		return first, total, q.pool[i%len(q.pool)].shape == "key", err
	})
	e.tuples = q.med.Stats().TuplesShipped - st0.TuplesShipped
	return e, nil
}

func (q *query) trace(dur time.Duration) (*layers, error) {
	l := &layers{tr: newTracer()}
	twin := workload.ScaleDB("db1", queryCustomers, queryOrders, q.seed)
	p := newPipeline(q.med, mix.Config{}, []*relstore.DB{q.db}, twin, l)
	st0 := q.med.Stats()
	err := l.passes(dur, func(i int) (uint64, error) {
		s := l.tr.begin("op." + q.pool[i%len(q.pool)].shape)
		defer l.tr.end(s)
		h, _, _, err := q.op(i, p)
		return h, err
	}, func() error {
		st1 := q.med.Stats()
		l.shipped, l.queries = st1.TuplesShipped-st0.TuplesShipped, st1.QueriesReceived-st0.QueriesReceived
		return nil
	}, func(i int) (uint64, error) {
		h, _, _, err := q.op(i, nil)
		return h, err
	})
	return l, err
}

// check compares every measured answer with a reference mediator that
// runs the naive plans: no rewriting, no SQL pushdown.
func (q *query) check() (int, []string) {
	ref, _, err := scaleMediator(queryCustomers, queryOrders, q.seed, mix.Config{DisableRewrite: true, DisablePushdown: true})
	if err != nil {
		return max(len(q.done), 1), []string{"FAIL reference set-up: " + err.Error()}
	}
	refQ := &query{med: ref}
	refQ.view, refQ.nodes, err = openNodes(ref)
	if err != nil {
		return max(len(q.done), 1), []string{"FAIL reference set-up: " + err.Error()}
	}
	defer refQ.view.Close()
	want := map[int]uint64{}
	wrong := 0
	for _, d := range q.done {
		h, ok := want[d.op]
		if !ok {
			h, _, _, err = refQ.run(q.pool[d.op], nil)
			if err != nil {
				return max(len(q.done), 1), []string{"FAIL reference query: " + err.Error()}
			}
			want[d.op] = h
		}
		if h != d.hash {
			wrong++
		}
	}
	return wrong, []string{checkLine("answers byte-identical to a no-rewrite, no-pushdown mediator", wrong, len(q.done))}
}

func (q *query) close() { q.view.Close() }
