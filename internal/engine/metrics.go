package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics counts the tuples each operator kind produced during one
// execution — the mediator-side work complement to the sources'
// shipped-tuple counters. A Program runs with metrics when started via
// RunWithMetrics; the zero cost of the disabled path keeps Run hot.
type Metrics struct {
	mu     sync.Mutex
	counts map[string]*atomic.Int64
}

// NewMetrics creates an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{counts: map[string]*atomic.Int64{}}
}

// counter returns the counter cell for an operator name, creating it. Under
// parallel execution, cursor instantiation — and hence cell creation — can
// happen on exchange producer goroutines, so the map is mutex-guarded; the
// per-tuple hot path only touches the atomic cell, never the map.
func (m *Metrics) counter(op string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counts[op]
	if !ok {
		c = &atomic.Int64{}
		m.counts[op] = c
	}
	return c
}

// Count returns the number of tuples an operator kind produced.
func (m *Metrics) Count(op string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	c, ok := m.counts[op]
	m.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Load()
}

// Total returns the total number of tuples produced across all operators.
func (m *Metrics) Total() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, c := range m.counts {
		total += c.Load()
	}
	return total
}

// String renders the per-operator counts sorted by name.
func (m *Metrics) String() string {
	if m == nil {
		return "(no metrics)"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.counts))
	for n := range m.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", n, m.counts[n].Load())
	}
	return b.String()
}

// countingCursor increments a counter per delivered tuple. It forwards the
// batch face too (counting whole chunks), so metrics never force the
// columnar operators back to per-tuple pulls.
type countingCursor struct {
	in Cursor
	c  *atomic.Int64
	bi *batchInput
}

func (cc *countingCursor) Next() (Tuple, bool, error) {
	t, ok, err := cc.in.Next()
	if ok {
		cc.c.Add(1)
	}
	return t, ok, err
}

func (cc *countingCursor) NextBatch(max int) (Batch, bool, error) {
	if cc.bi == nil {
		cc.bi = &batchInput{in: cc.in}
	}
	b, ok, err := cc.bi.pull(max)
	if ok {
		cc.c.Add(int64(b.Len()))
	}
	return b, ok, err
}

// Close forwards to the wrapped cursor so force-close cascades through
// counting wrappers.
func (cc *countingCursor) Close() { closeCursor(cc.in) }

// RunWithMetrics starts an execution whose operator outputs are counted.
// The per-operator counters measure mediator-side evaluation work (how many
// tuples each operator produced under demand), which the ablation analysis
// reads alongside the sources' transfer counters.
func (p *Program) RunWithMetrics() (*Result, *Metrics) {
	m := NewMetrics()
	ctx := p.newCtx()
	ctx.metrics = m
	return p.start(ctx), m
}
