package rewrite_test

import (
	"math/rand"
	"testing"

	"mix/internal/engine"
	"mix/internal/rewrite"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xmlio"
)

// TestRandomizedPlanEquivalenceVectorized replays the generator corpus with
// wider batch windows and the dataguide path index switched on, at several
// window caps (including 2 and 3, which force mid-batch boundaries
// everywhere), alone and combined with exchange parallelism. Every answer
// must be byte-identical to the baseline at the default options — a window
// of one row, walking paths, sequential — the whole contract of the window
// and parallel knobs: they may only change how fast bindings move, never
// which bindings move or their order.
func TestRandomizedPlanEquivalenceVectorized(t *testing.T) {
	rng := rand.New(rand.NewSource(20020208))
	const trials = 150
	configs := []engine.Options{
		{BatchExec: 2},
		{BatchExec: 64},
		{BatchExec: 3, PathIndex: true},
		{PathIndex: true},
		{Parallelism: 2},
		{Parallelism: 2, BatchExec: 64},
		{Parallelism: 4, BatchExec: 3, PathIndex: true},
		{Parallelism: 8, BatchExec: 2, ExchangeBuffer: 1},
	}
	executed := 0
	for trial := 0; trial < trials; trial++ {
		plan := workload.RandomPlan(rng)
		if err := xmas.Verify(plan); err != nil {
			continue
		}
		opt, _, err := rewrite.Optimize(plan, rewrite.Options{})
		if err != nil {
			t.Fatalf("trial %d: optimize: %v\n%s", trial, err, xmas.Format(plan))
		}
		baseline := serializePlan(t, trial, opt)
		for ci, opts := range configs {
			got := serializePlanWith(t, trial, opt, opts)
			if got != baseline {
				t.Fatalf("trial %d config %d (%+v): vectorized answer diverged\nplan:\n%s\ngot:\n%s\nwant:\n%s",
					trial, ci, opts, xmas.Format(opt), got, baseline)
			}
		}
		executed++
	}
	if executed < 100 {
		t.Fatalf("only %d/%d generated plans executed; generator skew?", executed, trials)
	}
}

func serializePlanWith(t *testing.T, trial int, plan xmas.Op, opts engine.Options) string {
	t.Helper()
	cat, _ := workload.PaperCatalog()
	prog, err := engine.CompileWith(plan, cat, opts)
	if err != nil {
		t.Fatalf("trial %d: compile (%+v): %v\nplan:\n%s", trial, opts, err, xmas.Format(plan))
	}
	res := prog.Run()
	m := res.Materialize()
	if err := res.Err(); err != nil {
		t.Fatalf("trial %d: run (%+v): %v\nplan:\n%s", trial, opts, err, xmas.Format(plan))
	}
	return xmlio.Serialize(m)
}
