package engine

import (
	"sync"

	"mix/internal/xmas"
)

// Intra-query parallelism is a policy for how a join's inputs are opened,
// not a separate operator set. The joins, the semi-join and cat open a
// source-touching probe or kept input through openInput (an exchange when a
// producer slot is free) and take their build or filtering input from a
// buildSide (drained on a producer when a slot is free). Both fall back to
// inline evaluation when no slot is free, so Parallelism <= 1 runs exactly
// the sequential code. The build starts at the first probe batch, which
// keeps the empty-probe laziness of demand-driven evaluation; output order is
// the sequential order (probe order, build rows in drain order), so answers
// are byte-identical at every parallelism level. A join over two federated
// sources thus pays max() of their latencies instead of their sum.

// asyncSide reports whether a join input is worth running on a producer
// goroutine: it must actually touch a source (otherwise there is no latency
// to hide, only goroutine overhead) and must not read an enclosing apply's
// partition state, whose memoizing lazy lists belong to the consumer.
func asyncSide(op xmas.Op) bool {
	return xmas.TouchesSource(op) && !xmas.ReadsPartition(op)
}

// openInput opens a join's probe (or a semi-join's kept, or cat's) input:
// through an exchange when the side is async, so it starts prefetching at
// cursor construction; inline otherwise.
func openInput(ctx *Ctx, op compiledOp, async bool) Cursor {
	if async {
		return startExchange(ctx.exec, func() Cursor { return op(ctx) })
	}
	return op(ctx)
}

// buildSide is a join's build (or a semi-join's filtering) input, drained at
// most once into one columnar batch. The first get opens and drains it — on
// a producer goroutine when the side is async and a slot is free, inline on
// the caller otherwise — and blocks until the drain is done. Close may race
// with get: it cancels an in-flight drain and joins it, and is idempotent.
type buildSide struct {
	ex    *execState
	async bool
	open  func() Cursor

	mu      sync.Mutex
	started bool
	closed  bool
	stop    chan struct{} // non-nil once a producer runs the drain
	done    chan struct{}

	val Batch
	err error
}

func newBuildSide(ex *execState, async bool, open func() Cursor) *buildSide {
	return &buildSide{ex: ex, async: async, open: open}
}

// get starts the drain on first call and returns its result.
func (b *buildSide) get() (Batch, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Batch{}, errExecClosed
	}
	if b.started {
		done := b.done
		b.mu.Unlock()
		if done != nil {
			<-done
		}
		return b.val, b.err
	}
	b.started = true
	if !b.async || !b.ex.tryAcquire() {
		b.mu.Unlock()
		b.val, b.err = drainBatch(b.open())
		return b.val, b.err
	}
	b.stop, b.done = make(chan struct{}), make(chan struct{})
	done := b.done
	go func() {
		defer close(done)
		defer b.ex.release()
		cur := b.open()
		defer closeCursor(cur)
		b.val, b.err = drainBatch(&stopCursor{in: batchInput{in: cur}, stop: b.stop})
	}()
	b.mu.Unlock()
	b.ex.track(b)
	<-done
	return b.val, b.err
}

// Close cancels an in-flight drain and joins its producer.
func (b *buildSide) Close() {
	b.mu.Lock()
	if !b.closed && b.stop != nil {
		close(b.stop)
	}
	b.closed = true
	done := b.done
	b.mu.Unlock()
	if done != nil {
		<-done
	}
}

// stopCursor ends a producer-side drain with errExecClosed once stop is
// closed. Cancellation is observed between pulls on either cursor face, so
// Close joins within one source pull (or one drain chunk) of latency.
type stopCursor struct {
	in   batchInput
	stop <-chan struct{}
}

func (s *stopCursor) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

func (s *stopCursor) Next() (Tuple, bool, error) {
	if s.stopped() {
		return Tuple{}, false, errExecClosed
	}
	return s.in.in.Next()
}

func (s *stopCursor) NextBatch(max int) (Batch, bool, error) {
	if s.stopped() {
		return Batch{}, false, errExecClosed
	}
	return s.in.pull(max)
}
