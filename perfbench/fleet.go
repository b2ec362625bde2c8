package main

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"mix"
	"mix/internal/faultnet"
	"mix/internal/qdom"
	"mix/internal/shard"
	"mix/internal/wire"
	"mix/internal/workload"
	"mix/internal/xtree"
)

// fleet: one client in a closed loop queries a coordinator mediator over a
// 2-member hash-sharded customer view (2000 customers). Each member is a
// mediator behind a wire.Server on its own net.Pipe, with a fixed injected
// latency on every I/O. It is the only workload that runs the shard
// coordinator, exchange parallelism and key routing; the coordinator sets
// Parallelism 2 because sharded fan-out needs it.
type fleet struct {
	seed    int64
	cfg     mix.Config
	med     *mix.Mediator
	doc     *shard.Doc
	members []*mix.Mediator
	servers []*wire.Server
	clients []*wire.Client
	done    []chan struct{}
	pool    []fleetOp
	answers []answerRec
	once    sync.Once
}

type fleetOp struct {
	shape string // scan, key or filter
	text  string
}

const (
	fleetCustomers = 2000
	fleetMembers   = 2
	fleetPool      = 60
	// fleetLatency is injected before every read and write on a member
	// connection, so scans are bound by round trips as across a network.
	fleetLatency = 100 * time.Microsecond
	fleetView    = "FOR $C IN document(&db1.customer)/customer RETURN $C"
)

func fleetSpec() shard.Spec {
	return shard.Spec{Mode: shard.ModeHash, N: fleetMembers, KeyPath: []string{"customer", "id"}}
}

func newFleet(seed int64) (bench, error) {
	f := &fleet{seed: seed, cfg: mix.Config{Parallelism: 2}}
	spec := fleetSpec()
	var members []shard.Member
	for i := 0; i < fleetMembers; i++ {
		lower := mix.New()
		lower.AddRelationalSource(workload.ShardScaleDB("db1", fleetCustomers, 1, seed, spec, i))
		if _, err := lower.DefineView("custs", fleetView); err != nil {
			f.close()
			return nil, err
		}
		server, client := net.Pipe()
		srv := wire.NewServer(lower)
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			_ = srv.ServeConn(server)
		}()
		conn := faultnet.Wrap(client, faultnet.Config{Seed: seed + int64(i), LatencyProb: 1, Latency: fleetLatency})
		c := wire.NewClient(conn)
		f.members = append(f.members, lower)
		f.servers = append(f.servers, srv)
		f.clients = append(f.clients, c)
		f.done = append(f.done, done)
		root, err := c.Open("custs")
		if err != nil {
			f.close()
			return nil, err
		}
		id := fmt.Sprintf("shard%d", i)
		members = append(members, shard.Member{ID: id, Doc: wire.NewRemoteDoc("&fleet/"+id, root)})
	}
	f.med = mix.NewWith(f.cfg)
	doc, err := f.med.AddShardedSource("&fleet", spec, members, shard.Config{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.doc = doc
	f.pool = fleetMix(rand.New(rand.NewSource(seed)))
	return f, nil
}

// fleetMix draws equal shares of ordered full scans, key lookups routed to
// one member, and filtered scans, in seeded order. Lookup keys and filter
// bounds are spread evenly over the customers from a seeded offset, so
// every seed sees the same mix of scan depths.
func fleetMix(rng *rand.Rand) []fleetOp {
	const perShape = fleetPool / 3
	step := fleetCustomers / perShape
	offset := rng.Intn(step)
	pool := make([]fleetOp, 0, fleetPool)
	for i := 0; i < perShape; i++ {
		pool = append(pool,
			fleetOp{"scan", "FOR $C IN document(&fleet)/customer RETURN $C"},
			fleetOp{"key", fmt.Sprintf(
				`FOR $C IN document(&fleet)/customer WHERE $C/id/data() = "C%06d" RETURN $C`, offset+i*step)},
			fleetOp{"filter", fmt.Sprintf(
				`FOR $C IN document(&fleet)/customer WHERE $C/name < "Corp%06d" RETURN $C`, offset+i*step)})
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// warm runs the first operation of each shape.
func (f *fleet) warm() error {
	done := map[string]bool{}
	for i, op := range f.pool {
		if done[op.shape] {
			continue
		}
		done[op.shape] = true
		if _, _, _, err := f.run(i, nil); err != nil {
			return err
		}
	}
	return nil
}

// run issues the i-th pool query and materializes its answer; an untraced
// answer is recorded for the check.
func (f *fleet) run(i int, p *pipeline) (*xtree.Node, time.Duration, time.Duration, error) {
	idx := i % len(f.pool)
	start := time.Now()
	var doc *qdom.Document
	var err error
	if p == nil {
		doc, err = f.med.Query(f.pool[idx].text)
	} else {
		doc, _, err = p.query(f.pool[idx].text)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	tree, first, total, err := answer(doc, start, p)
	if err == nil && p == nil {
		f.answers = append(f.answers, answerRec{idx, treeHash(tree)})
	}
	return tree, first, total, err
}

// counters sums the members' source and wire counters.
type fleetCounters struct {
	tuples, queries, bytes, requests, frames, batches int64
	shard                                             shard.Stats
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, m := range f.members {
		st := m.Stats()
		c.tuples += st.TuplesShipped
		c.queries += st.QueriesReceived
	}
	for _, cl := range f.clients {
		ws := cl.WireStats()
		c.bytes += ws.BytesSent + ws.BytesRecv
		c.requests += ws.RequestsSent
		c.frames += ws.FramesBatched
		c.batches += ws.BatchesFetched
	}
	c.shard = f.doc.Stats()
	return c
}

func (f *fleet) measure(dur time.Duration) (*e2e, error) {
	e := &e2e{opName: "full_answer"}
	c0 := f.counters()
	e.closedLoop(dur, func(i int) (time.Duration, time.Duration, bool, error) {
		_, first, total, err := f.run(i, nil)
		return first, total, f.pool[i%len(f.pool)].shape == "key", err
	})
	c1 := f.counters()
	// The coordinator's sources are the members: the rows they ship it
	// are the wire frames. (Member stores ship their rows once, into the
	// view each member keeps open.)
	e.tuples, e.wireBytes = c1.frames-c0.frames, c1.bytes-c0.bytes
	return e, nil
}

func (f *fleet) trace(dur time.Duration) (*layers, error) {
	l := &layers{tr: newTracer()}
	p := newPipeline(f.med, f.cfg, nil, nil, l)
	c0 := f.counters()
	hash := func(i int, p *pipeline) (uint64, error) {
		tree, _, _, err := f.run(i, p)
		if err != nil {
			return 0, err
		}
		if p != nil {
			l.answerRows += int64(len(tree.Children))
		}
		return treeHash(tree), nil
	}
	err := l.passes(dur, func(i int) (uint64, error) {
		s := l.tr.begin("op." + f.pool[i%len(f.pool)].shape)
		defer l.tr.end(s)
		return hash(i, p)
	}, func() error {
		c1 := f.counters()
		l.shipped, l.queries = c1.tuples-c0.tuples, c1.queries-c0.queries
		l.roundTrips, l.frames, l.batches = c1.requests-c0.requests, c1.frames-c0.frames, c1.batches-c0.batches
		l.shardScans, l.shardPruned = c1.shard.Scans-c0.shard.Scans, c1.shard.Pruned-c0.shard.Pruned
		for id, n := range c1.shard.Routes {
			l.shardRoutes += n - c0.shard.Routes[id]
		}
		return nil
	}, func(i int) (uint64, error) { return hash(i, nil) })
	return l, err
}

// check compares every answer with an unsharded mediator over the whole
// database, then closes the fleet and requires every member server to
// have dropped its handles.
func (f *fleet) check() (int, []string) {
	ref := mix.New()
	ref.AddRelationalSource(workload.ScaleDB("db1", fleetCustomers, 1, f.seed))
	want := map[int]uint64{}
	wrong := 0
	var out []string
	for _, a := range f.answers {
		h, ok := want[a.op]
		if !ok {
			doc, err := ref.Query(strings.ReplaceAll(f.pool[a.op].text, "&fleet", "&db1.customer"))
			if err != nil {
				return max(len(f.answers), 1), []string{"FAIL reference query: " + err.Error()}
			}
			h = treeHash(doc.Materialize())
			doc.Close()
			want[a.op] = h
		}
		if h != a.hash {
			wrong++
		}
	}
	out = append(out, checkLine("fleet answers byte-identical to an unsharded mediator", wrong, len(f.answers)))
	f.close()
	live := 0
	for _, s := range f.servers {
		live += s.LiveHandles()
	}
	if live != 0 {
		wrong++
		out = append(out, fmt.Sprintf("FAIL %d member handles live after the coordinator closed", live))
	} else {
		out = append(out, "ok member servers hold no handles after the coordinator closed")
	}
	return wrong, out
}

// close disconnects the members and waits for their server sessions.
func (f *fleet) close() {
	f.once.Do(func() {
		for _, c := range f.clients {
			_ = c.Close()
		}
		for _, d := range f.done {
			<-d
		}
	})
}
