package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mix/internal/source"
	"mix/internal/testleak"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// testTuples builds n single-variable tuples over leaf elements v0..v(n-1).
func testTuples(n int) ([]xmas.Var, []Tuple) {
	schema := []xmas.Var{"$X"}
	out := make([]Tuple, n)
	for i := range out {
		out[i] = NewTuple(schema, []Value{NodeVal{E: NewLeaf(fmt.Sprintf("&x%d", i), fmt.Sprintf("v%d", i))}})
	}
	return schema, out
}

// blockingCursor yields tuples with a per-pull delay, counts delivered
// tuples, and records whether it was closed.
type blockingCursor struct {
	tuples []Tuple
	delay  time.Duration

	mu        sync.Mutex
	pos       int
	delivered int
	closed    bool
}

func (b *blockingCursor) Next() (Tuple, bool, error) {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pos >= len(b.tuples) {
		return Tuple{}, false, nil
	}
	t := b.tuples[b.pos]
	b.pos++
	b.delivered++
	return t, true, nil
}

func (b *blockingCursor) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}

func (b *blockingCursor) snapshot() (delivered int, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.delivered, b.closed
}

func parExec(parallelism, buffer int) *execState {
	return newExecState(Options{Parallelism: parallelism, ExchangeBuffer: buffer})
}

func TestExchangeDeliversInOrder(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 4)
	_, tuples := testTuples(20)
	cur := startExchange(ex, func() Cursor { return &sliceCursor{tuples: tuples} })
	if _, ok := cur.(*exchange); !ok {
		t.Fatalf("expected an exchange, got %T", cur)
	}
	got, err := drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("got %d tuples, want %d", len(got), len(tuples))
	}
	for i, tt := range got {
		if tt.String() != tuples[i].String() {
			t.Fatalf("tuple %d: got %s, want %s", i, tt, tuples[i])
		}
	}
	closeCursor(cur) // after EOF: must be a safe no-op
}

func TestExchangePropagatesError(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 4)
	boom := errors.New("boom")
	_, tuples := testTuples(3)
	i := 0
	cur := startExchange(ex, func() Cursor {
		return cursorFunc(func() (Tuple, bool, error) {
			if i >= len(tuples) {
				return Tuple{}, false, boom
			}
			t := tuples[i]
			i++
			return t, true, nil
		})
	})
	got, err := drain(cur)
	if !errors.Is(err, boom) {
		t.Fatalf("got err %v, want boom", err)
	}
	if len(got) != 0 {
		t.Fatalf("drain returns nil tuples on error, got %d", len(got))
	}
	closeCursor(cur)
}

func TestExchangeBackpressure(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 2)
	_, tuples := testTuples(50)
	src := &blockingCursor{tuples: tuples}
	cur := startExchange(ex, func() Cursor { return src })
	// Pull one tuple, then give the producer time to run ahead: it may fill
	// the buffer (2) plus one in-flight item plus the one consumed, never all
	// fifty.
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	time.Sleep(50 * time.Millisecond)
	delivered, _ := src.snapshot()
	if max := 1 + 2 + 1; delivered > max {
		t.Fatalf("producer ran %d tuples ahead, backpressure bound is %d", delivered, max)
	}
	if _, err := drain(cur); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeCloseCancelsAndJoins(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 2)
	_, tuples := testTuples(1000)
	src := &blockingCursor{tuples: tuples, delay: time.Millisecond}
	cur := startExchange(ex, func() Cursor { return src })
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	x := cur.(*exchange)
	x.Close()
	x.Close() // idempotent
	if _, closed := src.snapshot(); !closed {
		t.Fatal("inner cursor not closed after exchange Close")
	}
	// The producer slot must be free again after Close.
	if !ex.tryAcquire() {
		t.Fatal("producer slot not released after Close")
	}
	ex.release()
}

func TestExchangeNoSlotFallsBackSynchronous(t *testing.T) {
	defer testleak.Check(t)()
	seqEx := newExecState(Options{}) // Parallelism unset: sequential
	_, tuples := testTuples(3)
	cur := startExchange(seqEx, func() Cursor { return &sliceCursor{tuples: tuples} })
	if _, ok := cur.(*sliceCursor); !ok {
		t.Fatalf("sequential execState must return the inner cursor, got %T", cur)
	}

	// Budget of one producer slot: the second exchange runs synchronous.
	ex := parExec(2, 2)
	first := startExchange(ex, func() Cursor { return &blockingCursor{tuples: tuples, delay: 50 * time.Millisecond} })
	if _, ok := first.(*exchange); !ok {
		t.Fatalf("first exchange should get the slot, got %T", first)
	}
	second := startExchange(ex, func() Cursor { return &sliceCursor{tuples: tuples} })
	if _, ok := second.(*sliceCursor); !ok {
		t.Fatalf("budget exhausted: second must be synchronous, got %T", second)
	}
	closeCursor(first)
}

// TestDrainHandleCancel closes a build side mid-drain from another
// goroutine: the producer must stop, close its cursor, release its slot, and
// the blocked get must report errExecClosed.
func TestDrainHandleCancel(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 2)
	_, tuples := testTuples(1000)
	src := &blockingCursor{tuples: tuples, delay: time.Millisecond}
	opened := make(chan struct{})
	h := newBuildSide(ex, true, func() Cursor { close(opened); return src })
	got := make(chan error, 1)
	go func() {
		b, err := h.get()
		if err == nil {
			err = fmt.Errorf("drain finished with %d rows before the cancel", b.Len())
		}
		got <- err
	}()
	<-opened // the producer owns the cursor now
	h.Close()
	h.Close() // idempotent
	if _, closed := src.snapshot(); !closed {
		t.Fatal("inner cursor not closed after drain cancel")
	}
	if err := <-got; !errors.Is(err, errExecClosed) {
		t.Fatalf("get across cancel: %v, want errExecClosed", err)
	}
	if _, err := h.get(); !errors.Is(err, errExecClosed) {
		t.Fatalf("get after cancel: %v, want errExecClosed", err)
	}
	if !ex.tryAcquire() {
		t.Fatal("producer slot not released after cancel")
	}
	ex.release()
}

func TestExecStateTrackAfterCloseAll(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(4, 2)
	ex.closeAll()
	src := &blockingCursor{}
	if ex.track(src) {
		t.Fatal("track after closeAll must report false")
	}
	if _, closed := src.snapshot(); !closed {
		t.Fatal("track after closeAll must close the cursor")
	}
}

// TestExchangeConcurrentNextCloseStress hammers Next and Close from separate
// goroutines; run under -race it is the exchange layer's data-race probe.
func TestExchangeConcurrentNextCloseStress(t *testing.T) {
	defer testleak.Check(t)()
	for round := 0; round < 50; round++ {
		ex := parExec(4, 4)
		_, tuples := testTuples(200)
		cur := startExchange(ex, func() Cursor { return &blockingCursor{tuples: tuples} })
		x, ok := cur.(*exchange)
		if !ok {
			t.Fatalf("round %d: expected an exchange, got %T", round, cur)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				if _, ok, err := x.Next(); !ok || err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if round%2 == 0 {
				time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
			}
			x.Close()
		}()
		wg.Wait()
		ex.closeAll()
	}
}

// gatedDoc is a source whose n-th row (1-based) first runs gate(n): the
// overlap probe that orders pulls across two sources without sleeps.
type gatedDoc struct {
	id   string
	keys []string
	gate func(n int) error
}

func (d *gatedDoc) RootID() string { return d.id }

func (d *gatedDoc) Open() (source.ElemCursor, error) { return &gatedCursor{d: d}, nil }

type gatedCursor struct {
	d *gatedDoc
	n int
}

func (c *gatedCursor) Next() (*xtree.Node, bool, error) {
	if c.n >= len(c.d.keys) {
		return nil, false, nil
	}
	c.n++
	if err := c.d.gate(c.n); err != nil {
		return nil, false, err
	}
	id := xtree.ID(fmt.Sprintf("%s.%d", c.d.id, c.n))
	return xtree.NewElem(id, "k", xtree.NewLeaf(id+"v", c.d.keys[c.n-1])), true, nil
}

func (c *gatedCursor) Close() {}

// TestParallelVectorizedJoinOverlap runs a two-source hash join and an NL
// join at Parallelism 3 with BatchExec 64: both must be vectorized cursors,
// and the build side must drain while the probe side is being pulled. The
// probe's second pull waits for the build's first row, and the build's
// second row waits for the probe's second pull; a join that drains its build
// side only between probe pulls times out on one of those waits.
func TestParallelVectorizedJoinOverlap(t *testing.T) {
	defer testleak.Check(t)()
	keys := []string{"k1", "k2", "k3", "k4"}
	for _, op := range []xtree.CmpOp{xtree.OpEQ, xtree.OpLE} {
		buildRow1, probePull2 := make(chan struct{}), make(chan struct{})
		wait := func(ch chan struct{}, what string) error {
			select {
			case <-ch:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("no overlap: timed out waiting for %s", what)
			}
		}
		cat := source.NewCatalog()
		cat.AddDoc("&p", &gatedDoc{id: "&p", keys: keys, gate: func(n int) error {
			if n == 2 {
				if err := wait(buildRow1, "the build side's first row"); err != nil {
					return err
				}
				close(probePull2)
			}
			return nil
		}})
		cat.AddDoc("&b", &gatedDoc{id: "&b", keys: keys, gate: func(n int) error {
			switch n {
			case 1:
				close(buildRow1)
			case 2:
				return wait(probePull2, "the probe side's second pull")
			}
			return nil
		}})
		cond := xmas.NewVarVarCond("$P", op, "$B")
		join, err := compile(&xmas.Join{
			L:    &xmas.MkSrc{SrcID: "&p", Out: "$P"},
			R:    &xmas.MkSrc{SrcID: "&b", Out: "$B"},
			Cond: &cond,
		}, cat)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Parallelism: 3, BatchExec: 64}
		ctx := &Ctx{cat: cat, opts: opts, exec: newExecState(opts)}
		defer ctx.exec.closeAll()
		cur := join(ctx)
		if _, ok := cur.(BatchCursor); !ok {
			t.Fatalf("%s join at Parallelism 3, BatchExec 64 runs as %T, want a BatchCursor", op, cur)
		}
		rows, err := drain(cur)
		if err != nil {
			t.Fatalf("%s join: %v", op, err)
		}
		want := len(keys)
		if op == xtree.OpLE {
			want = len(keys) * (len(keys) + 1) / 2
		}
		if len(rows) != want {
			t.Fatalf("%s join produced %d rows, want %d", op, len(rows), want)
		}
	}
}
