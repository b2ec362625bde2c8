package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"mix"
	"mix/internal/qdom"
	"mix/internal/relstore"
	"mix/internal/wire"
	"mix/internal/workload"
	"mix/internal/xmlio"
)

// serve: sessions arrive on a seeded Poisson schedule (an open loop) at an
// in-process wire.Server over 200 customers × 5 orders, each on its own
// net.Pipe connection, at most two at once. A session opens rootv, walks
// CustRecs with batched children, reads values, sometimes issues a remote
// in-place query and walks its answer, then releases and closes. A fixed
// share of arrivals are inserts into the orders relation the view reads,
// so read-side gains that move cost into writes still show.
type serve struct {
	seed int64
	med  *mix.Mediator
	db   *relstore.DB
	srv  *wire.Server
	pool []serveSession
	// inserted counts rows added so far; the insert sequence is fixed by
	// the seed, so every run sees the same data growth.
	inserted int
	ins      *rand.Rand
	// seen records each pool session that ran, for the final comparison
	// against the in-process mediator.
	seen map[int]bool
}

type serveSession struct {
	k       int    // CustRecs walked
	queryAt int    // CustRec the in-place query starts from; -1 for none
	query   string // the in-place query
}

const (
	serveCustomers = 200
	serveOrders    = 5
	servePool      = 100
	// serveWriteEvery makes every n-th arrival an insert.
	serveWriteEvery = 20
	// serveConns is the number of connections (and client goroutines).
	serveConns = 2
)

// serveSpec is spec.json's serve section: the session p99 limit a rate must
// meet, and the offered rates in sessions per second. The first rate is
// nominal: every end-to-end metric is measured at it, for NominalShare of
// the run; the rest share the remainder and probe for the highest rate that
// meets the limit.
var serveSpec struct {
	LimitMS      float64   `json:"latency_limit_ms"`
	Rates        []float64 `json:"offered_rates_per_s"`
	NominalShare float64   `json:"nominal_share"`
}

//go:embed spec.json
var specJSON []byte

func init() {
	var spec struct {
		Serve json.RawMessage `json:"serve"`
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		panic(err)
	}
	if err := json.Unmarshal(spec.Serve, &serveSpec); err != nil {
		panic(err)
	}
	if len(serveSpec.Rates) < 2 || serveSpec.LimitMS <= 0 || serveSpec.NominalShare <= 0 || serveSpec.NominalShare >= 1 {
		panic("perfbench: spec.json serve section is incomplete")
	}
}

func newServe(seed int64) (bench, error) {
	med, db, err := scaleMediator(serveCustomers, serveOrders, seed, mix.Config{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ks := walkLengths(rng, servePool, 40)
	queries := inPlaceQueries(rng, (servePool+2)/3)
	pool := make([]serveSession, servePool)
	for i, k := range ks {
		pool[i] = serveSession{k: k, queryAt: -1}
		if i%3 == 0 { // a third of the sessions query in place
			pool[i].queryAt = rng.Intn(k)
			pool[i].query = queries[i/3]
		}
	}
	return &serve{seed: seed, med: med, db: db, srv: wire.NewServer(med), pool: pool,
		ins: rand.New(rand.NewSource(seed + 1)), seen: map[int]bool{}}, nil
}

// warmSession is the same for every seed, so setup_s does not vary with it.
var warmSession = serveSession{k: 3, queryAt: 0, query: "FOR $O IN document(root)/OrderInfo RETURN $O"}

func (s *serve) warm() error {
	_, _, _, _, err := s.session(warmSession, nil)
	return err
}

// insertOrder adds the n-th order of the fixed write sequence.
func insertOrder(db *relstore.DB, rng *rand.Rand, n int) error {
	return db.Insert("orders", []relstore.Datum{
		relstore.Str(fmt.Sprintf("W%08d", n)),
		relstore.Str(fmt.Sprintf("C%06d", rng.Intn(serveCustomers))),
		relstore.Int(int64(rng.Intn(100_000))),
	})
}

// connect starts a server session over a fresh pipe; stop closes the
// client and waits for the server side to finish.
func (s *serve) connect() (*wire.Client, func()) {
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		_ = s.srv.ServeConn(server)
	}()
	c := wire.NewClient(client)
	return c, func() {
		c.Close()
		<-done
	}
}

// session runs one client session and returns the digest of everything it
// read, the time from Open to the first CustRec, the client's wire
// counters and the number of answer nodes it consumed. Invariants that
// hold at every data version are checked on the way.
func (s *serve) session(ss serveSession, tr *tracer) (uint64, time.Duration, wire.WireStats, int, error) {
	c, stop := s.connect()
	defer stop()
	call := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		sp := tr.begin(name)
		return func() { tr.end(sp) }
	}
	d := newDigest()
	rows := 0
	start := time.Now()
	end := call("wire.open")
	root, err := c.Open("rootv")
	end()
	if err != nil {
		return 0, 0, wire.WireStats{}, 0, err
	}
	end = call("wire.down")
	n, err := root.Down()
	end()
	first := time.Since(start)
	lastID := ""
	for i := 0; i < ss.k && n != nil && err == nil; i++ {
		rows++
		d.add(n.Label())
		var id string
		id, err = s.readCustRec(n, &d, call)
		if err != nil {
			break
		}
		if id <= lastID {
			err = fmt.Errorf("CustRec %s after %s: view order broken", id, lastID)
			break
		}
		lastID = id
		if i == ss.queryAt {
			var r int
			r, err = s.queryFrom(n, ss.query, id, &d, call)
			rows += r
			if err != nil {
				break
			}
		}
		next := n
		if i+1 < ss.k {
			end = call("wire.right")
			next, err = n.Right()
			end()
		}
		_ = n.Release()
		n = next
	}
	if err != nil {
		return 0, 0, wire.WireStats{}, 0, err
	}
	_ = root.Release()
	return d.h, first, c.WireStats(), rows, nil
}

// readCustRec reads a CustRec's customer and first OrderInfo and checks
// that the order belongs to the customer. It returns the customer id.
func (s *serve) readCustRec(n *wire.RemoteNode, d *digest, call func(string) func()) (string, error) {
	end := call("wire.down")
	cust, err := n.Down()
	end()
	if err != nil || cust == nil {
		return "", fmt.Errorf("CustRec without customer: %v", err)
	}
	defer cust.Release()
	end = call("wire.materialize")
	xml, err := cust.Materialize()
	end()
	if err != nil {
		return "", err
	}
	d.add(xml)
	id := between(xml, "<id>", "</id>")
	end = call("wire.right")
	oi, err := cust.Right()
	end()
	if err != nil || oi == nil {
		return id, err
	}
	defer oi.Release()
	end = call("wire.materialize")
	xml, err = oi.Materialize()
	end()
	if err != nil {
		return "", err
	}
	d.add(xml)
	if cid := between(xml, "<cid>", "</cid>"); cid != id {
		return "", fmt.Errorf("OrderInfo of %s holds an order of %s", id, cid)
	}
	return id, nil
}

// queryFrom runs the in-place query at n and walks its answer; every answer
// node must mention the customer it was asked from.
func (s *serve) queryFrom(n *wire.RemoteNode, q, id string, d *digest, call func(string) func()) (int, error) {
	end := call("wire.query_from")
	r, err := n.QueryFrom(q)
	end()
	if err != nil {
		return 0, err
	}
	defer r.Release()
	rows := 0
	end = call("wire.down")
	a, err := r.Down()
	end()
	for a != nil && err == nil {
		rows++
		var xml string
		end = call("wire.materialize")
		xml, err = a.Materialize()
		end()
		if err != nil {
			break
		}
		if !strings.Contains(xml, ">"+id+"<") {
			return 0, fmt.Errorf("in-place answer from %s does not mention it", id)
		}
		d.add(xml)
		end = call("wire.right")
		next, rerr := a.Right()
		end()
		_ = a.Release()
		a, err = next, rerr
	}
	return rows, err
}

func between(s, open, close string) string {
	i := strings.Index(s, open)
	if i < 0 {
		return ""
	}
	s = s[i+len(open):]
	if j := strings.Index(s, close); j >= 0 {
		return s[:j]
	}
	return ""
}

// arrival is one scheduled operation of the open loop.
type arrival struct {
	due time.Time
	seq int // position in the operation sequence
}

// phase is what one offered rate produced.
type phase struct {
	rate             float64
	first, session   samples
	write, wait, lag samples
	sessions, failed int
	wireBytes        int64
	drain            time.Duration // last completion after the last arrival was due
	wall             time.Duration // phase start to last completion
}

// openLoop offers sessions at rate for dur: a dispatcher releases each
// arrival when it is due and serveConns workers serve them in order.
// Sessions are timed from their scheduled arrival. The arrivals are a
// Poisson process given its count, rate·dur: that many uniform instants,
// sorted, so every seed offers the same load.
func (s *serve) openLoop(rate float64, dur time.Duration, seq *int, rng *rand.Rand) *phase {
	due := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	ph := &phase{rate: rate}
	// Buffered for every arrival of the phase, so the dispatcher never
	// blocks and its lag measures only its own lateness.
	queue := make(chan arrival, len(due))
	var mu sync.Mutex
	var last time.Time
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				begin := time.Now()
				isWrite := (a.seq+1)%serveWriteEvery == 0
				var first time.Duration
				var st wire.WireStats
				var err error
				if isWrite {
					mu.Lock() // inserts keep their sequence order
					err = insertOrder(s.db, s.ins, s.inserted)
					s.inserted++
					mu.Unlock()
				} else {
					idx := a.seq % len(s.pool)
					_, first, st, _, err = s.session(s.pool[idx], nil)
					mu.Lock()
					s.seen[idx] = true
					mu.Unlock()
				}
				end := time.Now()
				mu.Lock()
				ph.wait.add(begin.Sub(a.due))
				switch {
				case err != nil:
					ph.failed++
				case isWrite:
					ph.write.add(end.Sub(begin))
				default:
					ph.sessions++
					ph.first.add(first)
					ph.session.add(end.Sub(a.due))
					ph.wireBytes += st.BytesSent + st.BytesRecv
				}
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for _, t := range due {
		at := start.Add(t)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		ph.lag.add(time.Since(at))
		queue <- arrival{due: at, seq: *seq}
		*seq++
	}
	close(queue)
	wg.Wait()
	ph.wall = last.Sub(start)
	if len(due) > 0 {
		ph.drain = last.Sub(start.Add(due[len(due)-1]))
	}
	return ph
}

// ok reports whether the phase met the latency limit without a backlog
// left over at its end.
func (ph *phase) ok() bool {
	limit := time.Duration(serveSpec.LimitMS * float64(time.Millisecond))
	return ph.failed == 0 && pct(ph.session, 99) <= serveSpec.LimitMS && ph.drain <= limit
}

func (s *serve) measure(dur time.Duration) (*e2e, error) {
	e := &e2e{opName: "session", openLoop: true}
	rng := rand.New(rand.NewSource(s.seed + 2))
	seq := 0
	st0 := s.med.Stats()
	e.mem0 = readMem()
	nominalDur := time.Duration(float64(dur) * serveSpec.NominalShare)
	nominal := s.openLoop(serveSpec.Rates[0], nominalDur, &seq, rng)
	e.mem1 = readMem()
	e.tuples = s.med.Stats().TuplesShipped - st0.TuplesShipped
	e.heapMB = retainedHeapMB()
	e.first, e.op, e.write = nominal.first, nominal.session, nominal.write
	e.ops, e.wall, e.wireBytes = nominal.sessions, nominal.wall, nominal.wireBytes
	e.attempted = nominal.sessions + len(nominal.write) + nominal.failed
	e.failed = nominal.failed
	if nominal.ok() {
		e.maxOKRate = nominal.rate
	}
	probe := (dur - nominalDur) / time.Duration(len(serveSpec.Rates)-1)
	for _, rate := range serveSpec.Rates[1:] {
		ph := s.openLoop(rate, probe, &seq, rng)
		e.attempted += ph.sessions + len(ph.write) + ph.failed
		e.failed += ph.failed
		if ph.ok() {
			e.maxOKRate = rate
		}
	}
	return e, nil
}

// op runs the i-th operation of the fixed sequence on s: every
// serveWriteEvery-th is an insert (hash 0), the rest are sessions. With tr
// set the calls are traced and each insert is repeated on the pipeline's
// twin store, whose inserts draw from twinIns.
func (s *serve) op(i int, tr *tracer, p *pipeline, twinIns *rand.Rand) (uint64, wire.WireStats, int, error) {
	if (i+1)%serveWriteEvery == 0 {
		var err error
		if tr == nil {
			err = insertOrder(s.db, s.ins, s.inserted)
		} else {
			tr.do("relstore.insert", func() { err = insertOrder(s.db, s.ins, s.inserted) })
			if err == nil {
				err = insertOrder(p.twin, twinIns, s.inserted)
			}
		}
		s.inserted++
		return 0, wire.WireStats{}, 0, err
	}
	idx := i % len(s.pool)
	s.seen[idx] = true
	if tr != nil {
		sp := tr.begin("op.session")
		defer tr.end(sp)
		v, _ := s.med.View("rootv")
		if err := p.replay(v.ExecPlan); err != nil {
			return 0, wire.WireStats{}, 0, err
		}
	}
	h, _, st, rows, err := s.session(s.pool[idx], tr)
	return h, st, rows, err
}

func (s *serve) trace(dur time.Duration) (*layers, error) {
	l := &layers{tr: newTracer()}
	// The traced and untraced passes replay one fixed operation sequence,
	// each from a freshly built system, so both see the same versions.
	twin := workload.ScaleDB("db1", serveCustomers, serveOrders, s.seed)
	twinIns := rand.New(rand.NewSource(s.seed + 1))
	p := newPipeline(s.med, mix.Config{}, nil, twin, l)
	st0 := s.med.Stats()
	var u *serve
	defer func() {
		if u != nil {
			u.close()
		}
	}()
	sessions := 0
	err := l.passes(dur, func(i int) (uint64, error) {
		h, st, rows, err := s.op(i, l.tr, p, twinIns)
		if (i+1)%serveWriteEvery != 0 {
			sessions++
		}
		l.roundTrips += st.RequestsSent
		l.frames += st.FramesBatched
		l.batches += st.BatchesFetched
		l.answerRows += int64(rows)
		return h, err
	}, func() error {
		st1 := s.med.Stats()
		l.shipped, l.queries = st1.TuplesShipped-st0.TuplesShipped, st1.QueriesReceived-st0.QueriesReceived
		l.liveHandlesEnd = s.srv.LiveHandles()
		fresh, err := newServe(s.seed)
		u, _ = fresh.(*serve)
		return err
	}, func(i int) (uint64, error) {
		h, _, _, err := u.op(i, nil, nil, nil)
		return h, err
	})
	if err != nil {
		return nil, err
	}
	l.ops = sessions

	// The load generator's own figures come from an untraced open loop at
	// the nominal rate.
	seq := 0
	ph := u.openLoop(serveSpec.Rates[0], dur/4, &seq, rand.New(rand.NewSource(s.seed+2)))
	l.loadWaitP50, l.loadLagP99 = pct(ph.wait, 50), pct(ph.lag, 99)
	l.failed += ph.failed
	l.attempted += ph.sessions + len(ph.write) + ph.failed
	if n := u.srv.LiveHandles(); n != 0 {
		l.failed++
		l.checks = append(l.checks, fmt.Sprintf("FAIL %d server handles live after the open loop", n))
	}
	return l, nil
}

// check: invariants were checked inside every session, and a session that
// broke one counted as failed where it ran; here each pool
// session that ran is replayed remotely and in process at the final data
// version, and the two must read the same bytes. The server must hold no
// handles once every client has closed.
func (s *serve) check() (int, []string) {
	var out []string
	wrong, mismatch := 0, 0
	for idx := range s.seen {
		remote, _, _, _, err := s.session(s.pool[idx], nil)
		local, lerr := s.localSession(s.pool[idx])
		if err != nil || lerr != nil || remote != local {
			mismatch++
		}
	}
	wrong += mismatch
	out = append(out, checkLine("remote sessions read the same bytes as the in-process mediator", mismatch, len(s.seen)))
	if n := s.srv.LiveHandles(); n != 0 {
		wrong++
		out = append(out, fmt.Sprintf("FAIL %d server handles live after every client closed", n))
	} else {
		out = append(out, "ok server holds no handles after every client closed")
	}
	return wrong, out
}

// localSession is session through the in-process mediator: the same walk,
// the same materialized bytes.
func (s *serve) localSession(ss serveSession) (uint64, error) {
	doc, err := s.med.Open("rootv")
	if err != nil {
		return 0, err
	}
	defer doc.Close()
	d := newDigest()
	ser := func(n *qdom.Node) string { return xmlio.SerializeIndent(n.Materialize()) }
	n := doc.Root().Down()
	for i := 0; i < ss.k && n != nil; i++ {
		d.add(n.Label())
		cust := n.Down()
		d.add(ser(cust))
		if oi := cust.Right(); oi != nil {
			d.add(ser(oi))
		}
		if i == ss.queryAt {
			r, err := s.med.QueryFrom(n, ss.query)
			if err != nil {
				return 0, err
			}
			for a := r.Root().Down(); a != nil; a = a.Right() {
				d.add(ser(a))
			}
			r.Close()
		}
		if i+1 < ss.k {
			n = n.Right()
		}
	}
	return d.h, doc.Err()
}

func (s *serve) close() {
	_ = s.srv.Close()
}
