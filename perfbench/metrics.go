package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples collects one timing per operation, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// pct returns the p-th percentile (0..100) with linear interpolation
// between closest ranks.
func pct(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return pct(vals, 50) }

// memSnap brackets a timed phase with the runtime's allocation counters.
type memSnap struct {
	alloc uint64
	gc    uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, gc: ms.NumGC}
}

// retainedHeapMB forces a collection and reports the live heap.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// e2e is what one untraced run measured.
type e2e struct {
	// first is issue-to-first-answer-node; op is the whole operation: a
	// session on browse and serve, a full answer on query and fleet.
	first, op samples
	// point is the full answer of key lookups; write is one insert.
	point, write samples
	// opName names op in the workload's own terms (session or
	// full_answer), under which it is also reported.
	opName string

	attempted, failed int
	// wall is what ops_per_s divides by: the summed operation time of a
	// closed loop, the nominal phase of an open one.
	wall       time.Duration
	ops        int // operations counted for the per-op ratios
	tuples     int64
	wireBytes  int64
	mem0, mem1 memSnap
	heapMB     float64
	setupS     float64
	// openLoop marks serve, whose maxOKRate is the highest offered rate
	// that met the latency limit (0 when none did).
	openLoop  bool
	maxOKRate float64
}

// closedLoop runs op(0), op(1), ... back to back until d has passed and
// records each one's times: to the first answer node, to the end of the
// operation, and whether it was a point query. A failed operation counts
// and is skipped.
func (e *e2e) closedLoop(d time.Duration, op func(i int) (first, total time.Duration, point bool, err error)) {
	e.mem0 = readMem()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		e.attempted++
		first, total, point, err := op(i)
		if err != nil {
			e.failed++
			continue
		}
		e.first.add(first)
		e.op.add(total)
		if point {
			e.point.add(total)
		}
		e.wall += total
	}
	e.mem1 = readMem()
	e.ops = len(e.op)
	e.heapMB = retainedHeapMB()
}

// metrics returns the gated end-to-end metrics every workload reports, then
// the ungated ones, then the sample counts behind the percentiles.
func (e *e2e) metrics() (common, extra map[string]metric, n map[string]int) {
	ops := float64(max(e.ops, 1))
	opsPerS := 0.0
	if e.wall > 0 {
		opsPerS = float64(e.ops) / e.wall.Seconds()
	}
	common = map[string]metric{
		"setup_s":               {e.setupS, "s"},
		"first_answer_p50_ms":   {pct(e.first, 50), "ms"},
		"op_p50_ms":             {pct(e.op, 50), "ms"},
		"ops_per_s":             {opsPerS, "1/s"},
		"tuples_shipped_per_op": {float64(e.tuples) / ops, "count"},
		"alloc_bytes_per_op":    {float64(e.mem1.alloc-e.mem0.alloc) / ops, "B"},
		"retained_heap_mb":      {e.heapMB, "MB"},
	}
	n = map[string]int{"first_answer_p50_ms": len(e.first), "first_answer_p99_ms": len(e.first), "op_p50_ms": len(e.op)}
	// The 99th percentiles move by more than any usable bound from run to
	// run on a shared 2-core host, so they are reported here, ungated.
	extra = map[string]metric{
		"first_answer_p99_ms": {pct(e.first, 99), "ms"},
		e.opName + "_p50_ms":  {pct(e.op, 50), "ms"},
		e.opName + "_p99_ms":  {pct(e.op, 99), "ms"},
		"gc_cycles_per_op":    {float64(e.mem1.gc-e.mem0.gc) / ops, "count"},
	}
	n[e.opName+"_p50_ms"], n[e.opName+"_p99_ms"] = len(e.op), len(e.op)
	if len(e.point) > 0 {
		extra["point_query_p50_ms"] = metric{pct(e.point, 50), "ms"}
		n["point_query_p50_ms"] = len(e.point)
	}
	if len(e.write) > 0 {
		extra["write_p50_ms"] = metric{pct(e.write, 50), "ms"}
		n["write_p50_ms"] = len(e.write)
	}
	if e.wireBytes > 0 {
		extra["wire_bytes_per_op"] = metric{float64(e.wireBytes) / ops, "B"}
	}
	if e.openLoop {
		extra["max_ok_rate_s"] = metric{e.maxOKRate, "1/s"}
	}
	return common, extra, n
}
