package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent indexes the enclosing span, -1 at the top.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	op         int32
}

// tracer keeps spans in memory for one goroutine and writes them out when
// the run ends. Spans nest by call order: begin pushes, end pops.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextOp starts a new operation id for the spans that follow.
func (t *tracer) nextOp() { t.op++ }

func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, op: t.op})
	t.stack = append(t.stack, idx)
	return idx
}

func (t *tracer) end(idx int32) {
	t.spans[idx].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	s := t.begin(name)
	fn()
	t.end(s)
}

// spanAgg sums one span name: calls, total duration and total self time
// (duration minus the time its child spans cover).
type spanAgg struct {
	calls     int
	dur, self time.Duration
}

func (t *tracer) aggregate() map[string]*spanAgg {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*spanAgg{}
	for i, s := range t.spans {
		a := out[s.name]
		if a == nil {
			a = &spanAgg{}
			out[s.name] = a
		}
		a.calls++
		a.dur += time.Duration(s.end - s.start)
		a.self += time.Duration(s.end - s.start - child[i])
	}
	return out
}

// total is the summed duration of every span with this name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return time.Duration(d)
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.op, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is what one traced run measured. Counters not touched by a
// workload stay zero: the layer does not run there.
type layers struct {
	tr                *tracer
	attempted, failed int
	checks            []string
	ops               int // traced operations

	// untraced and traced are the wall times of the two passes over the
	// same operations; replay is the traced pass's time spent re-running
	// shipped SQL on the twin store, which the program never does.
	untraced, traced time.Duration

	rewriteAllocs, rewriteSteps int64
	statements, plans           int64
	rowsReplayed                int64
	shipped, queries            int64 // the program's own relstore counters, traced pass
	roundTrips, frames, batches int64
	answerRows                  int64
	liveHandlesEnd              int
	shardScans, shardRoutes     int64
	shardPruned                 int64
	gcCycles                    uint32 // untraced pass
	loadWaitP50, loadLagP99     float64
}

// layerMetric names every per-layer metric; metrics reports all of them.
var layerMetric = []struct{ name, unit string }{
	{"xquery.parse_us", "us"}, {"translate.translate_us", "us"},
	{"compose.decontextualize_us", "us"}, {"rewrite.optimize_us", "us"},
	{"rewrite.allocs_per_call", "count"}, {"rewrite.steps_per_call", "count"},
	{"sqlgen.push_us", "us"}, {"sqlgen.statements_per_plan", "count"},
	{"xmas.verify_us", "us"}, {"engine.compile_us", "us"},
	{"engine.first_answer_us", "us"}, {"engine.drain_us", "us"}, {"engine.self_us", "us"},
	{"qdom.step_us", "us"}, {"qdom.steps_per_op", "count"},
	{"sqlexec.first_row_us", "us"}, {"sqlexec.row_ns", "ns"},
	{"relstore.queries_per_op", "count"}, {"relstore.insert_us", "us"},
	{"wire.round_trips_per_op", "count"}, {"wire.frames_per_batch", "count"},
	{"wire.frames_per_answer_row", "count"},
	{"wire.call_us.open", "us"}, {"wire.call_us.down", "us"},
	{"wire.call_us.right", "us"}, {"wire.call_us.query_from", "us"},
	{"wire.live_handles_end", "count"},
	{"shard.members_per_query", "count"}, {"shard.pruned_ratio", "ratio"},
	{"gc.cycles_per_op", "count"},
	{"loadgen.wait_p50_ms", "ms"}, {"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// passes is the traced run's skeleton. traced runs operations 0, 1, ...
// for 60% of d; then, after between, untraced replays the same operations
// through the public entry points. An operation whose answer digest differs
// between the passes counts as failed.
func (l *layers) passes(d time.Duration, traced func(i int) (uint64, error), between func() error, untraced func(i int) (uint64, error)) error {
	var want []uint64
	start := time.Now()
	deadline := start.Add(d * 6 / 10)
	for i := 0; time.Now().Before(deadline); i++ {
		l.tr.nextOp()
		h, err := traced(i)
		if err != nil {
			return err
		}
		want = append(want, h)
	}
	l.traced = time.Since(start)
	l.ops = len(want)
	if err := between(); err != nil {
		return err
	}
	m0 := readMem()
	start = time.Now()
	for i, w := range want {
		l.attempted++
		if h, err := untraced(i); err != nil || h != w {
			l.failed++
		}
	}
	l.untraced = time.Since(start)
	l.gcCycles = readMem().gc - m0.gc
	l.checks = append(l.checks, checkLine("traced answers byte-identical to the untraced entry points", l.failed, len(want)))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (l *layers) metrics() map[string]metric {
	agg := l.tr.aggregate()
	meanUS := func(name string) float64 {
		a := agg[name]
		if a == nil || a.calls == 0 {
			return 0
		}
		return float64(a.dur) / float64(a.calls) / float64(time.Microsecond)
	}
	calls := func(name string) int64 {
		if a := agg[name]; a != nil {
			return int64(a.calls)
		}
		return 0
	}
	ops := int64(max(l.ops, 1))
	v := map[string]float64{
		"xquery.parse_us":            meanUS("xquery.parse"),
		"translate.translate_us":     meanUS("translate.translate"),
		"compose.decontextualize_us": meanUS("compose.decontextualize"),
		"rewrite.optimize_us":        meanUS("rewrite.optimize"),
		"rewrite.allocs_per_call":    ratio(l.rewriteAllocs, calls("rewrite.optimize")),
		"rewrite.steps_per_call":     ratio(l.rewriteSteps, calls("rewrite.optimize")),
		"sqlgen.push_us":             meanUS("sqlgen.push"),
		"sqlgen.statements_per_plan": ratio(l.statements, l.plans),
		"xmas.verify_us":             meanUS("xmas.verify"),
		"engine.compile_us":          meanUS("engine.compile"),
		"engine.first_answer_us":     meanUS("engine.first_answer"),
		"engine.drain_us":            meanUS("engine.drain"),
		"qdom.step_us":               meanUS("qdom.step"),
		"qdom.steps_per_op":          ratio(calls("qdom.step"), ops),
		"sqlexec.first_row_us":       meanUS("sqlexec.first_row"),
		"relstore.queries_per_op":    ratio(l.queries, ops),
		"relstore.insert_us":         meanUS("relstore.insert"),
		"wire.round_trips_per_op":    ratio(l.roundTrips, ops),
		"wire.frames_per_batch":      ratio(l.frames, l.batches),
		"wire.frames_per_answer_row": ratio(l.frames, l.answerRows),
		"wire.call_us.open":          meanUS("wire.open"),
		"wire.call_us.down":          meanUS("wire.down"),
		"wire.call_us.right":         meanUS("wire.right"),
		"wire.call_us.query_from":    meanUS("wire.query_from"),
		"wire.live_handles_end":      float64(l.liveHandlesEnd),
		"shard.members_per_query":    ratio(l.shardRoutes, l.shardScans),
		"shard.pruned_ratio":         ratio(l.shardPruned, l.shardScans),
		"gc.cycles_per_op":           float64(l.gcCycles) / float64(ops),
		"loadgen.wait_p50_ms":        l.loadWaitP50,
		"loadgen.lag_p99_ms":         l.loadLagP99,
	}
	rows := l.tr.total("sqlexec.rows")
	rowNS := 0.0
	if l.rowsReplayed > 0 {
		rowNS = float64(rows) / float64(l.rowsReplayed)
	}
	v["sqlexec.row_ns"] = rowNS
	// The engine's own time: its spans minus what the source would have
	// spent producing the rows the program shipped (first rows plus
	// per-row cost, both measured on the twin store).
	// Zero where the engine runs out of the benchmark's reach (behind the
	// wire on serve).
	if engine := l.tr.total("engine.first_answer") + l.tr.total("engine.drain"); engine > 0 {
		source := l.tr.total("sqlexec.first_row") + time.Duration(rowNS*float64(l.shipped))
		v["engine.self_us"] = float64(engine-source) / float64(ops) / float64(time.Microsecond)
	}
	replay := l.tr.total("sqlexec.replay")
	if l.untraced > 0 {
		v["trace.overhead_pct"] = (float64(l.traced-replay)/float64(l.untraced) - 1) * 100
	}
	out := make(map[string]metric, len(layerMetric))
	for _, m := range layerMetric {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// selfTimes reports every span name's mean self time in microseconds.
func (l *layers) selfTimes() map[string]metric {
	out := map[string]metric{}
	for name, a := range l.tr.aggregate() {
		out["self."+name] = metric{float64(a.self) / float64(a.calls) / float64(time.Microsecond), "us"}
	}
	return out
}
