// Command perfbench is the MIX benchmark. One invocation runs one workload
// for a fixed time, checks every answer it measured, and prints its metrics:
//
//	perfbench -workload browse -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run; with
// -trace 1 it replays the workload's seeded operations twice, once through
// the public entry points and once stage by stage with in-memory spans, and
// reports the per-layer metrics and the tracing overhead. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The full result, with host details and the workload-specific metrics, is
// written under -out. run.py builds this program and is the usual way in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// bench is one benchmark workload over one freshly built system.
type bench interface {
	// warm runs one untimed operation so lazy set-up finishes inside
	// setup_s rather than in the first timed sample.
	warm() error
	// measure runs untraced operations for d and returns what it saw.
	measure(d time.Duration) (*e2e, error)
	// trace replays seeded operations untraced and then traced for about
	// d in total and returns the per-layer figures.
	trace(d time.Duration) (*layers, error)
	// check verifies every recorded answer against a reference evaluation
	// and returns the number of wrong operations with a description.
	check() (wrong int, detail []string)
	close()
}

// newWorkload sets up each workload's system from the seed; setup_s times
// it.
var newWorkload = map[string]func(seed int64) (bench, error){
	"browse": newBrowse,
	"query":  newQuery,
	"serve":  newServe,
	"fleet":  newFleet,
}

// setupReps is how many times set-up is timed; setup_s is the median.
const setupReps = 7

func main() {
	name := flag.String("workload", "", "workload: browse, query, serve or fleet")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", "", "directory for the full result and the span file")
	commit := flag.String("commit", "unknown", "commit or source digest the binary was built from")
	flag.Parse()
	setup, ok := newWorkload[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(*name, setup, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Host = hostInfo(*commit, *seed)
	printTable(res)
	if *out != "" {
		if err := writeJSON(filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *traceOn)), res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res.Summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Summary.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last stdout line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the full record written under -out.
type result struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Host     map[string]string `json:"host"`
	Summary  summary           `json:"summary"`
	// Extra holds, for an untraced run, the workload-specific end-to-end
	// metrics (session, full-answer, point-query, write, wire and
	// serve-rate figures) that are not defined on every workload; for a
	// traced run, each span's mean self time.
	Extra   map[string]metric `json:"extra,omitempty"`
	Samples map[string]int    `json:"samples,omitempty"`
	Checks  []string          `json:"checks"`
}

func run(name string, setup func(int64) (bench, error), seed int64, d time.Duration, traced bool, out string) (*result, error) {
	baseGoroutines := runtime.NumGoroutine()
	var w bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		nw, err := setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		w = nw
		if err := w.warm(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res := &result{Workload: name, Seed: seed, Trace: traced}
	var attempted, failed int
	if traced {
		l, err := w.trace(d)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s traced run: %w", name, err)
		}
		attempted, failed = l.attempted, l.failed
		res.Summary.Metrics = l.metrics()
		res.Extra = l.selfTimes()
		res.Checks = append(res.Checks, l.checks...)
		if out != "" {
			if err := l.tr.writeFile(filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.csv", name, seed))); err != nil {
				w.close()
				return nil, err
			}
		}
	} else {
		e, err := w.measure(d)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s run: %w", name, err)
		}
		e.setupS = median(setups)
		attempted, failed = e.attempted, e.failed
		res.Summary.Metrics, res.Extra, res.Samples = e.metrics()
	}
	wrong, detail := w.check()
	failed += wrong
	res.Checks = append(res.Checks, detail...)
	w.close()
	if n, ok := goroutinesBack(baseGoroutines); !ok {
		failed++
		res.Checks = append(res.Checks, fmt.Sprintf("FAIL goroutine leak: %d running, %d at start", n, baseGoroutines))
	} else {
		res.Checks = append(res.Checks, "ok goroutines back at baseline")
	}
	if attempted < 1 {
		return nil, fmt.Errorf("%s: no operation completed", name)
	}
	if !traced {
		res.Extra["error_rate"] = metric{float64(failed) / float64(attempted), "ratio"}
	}
	res.Summary.Attempted, res.Summary.Failed = attempted, failed
	res.Summary.Correct = failed == 0
	return res, nil
}

// goroutinesBack waits for the goroutine count to fall back to base.
func goroutinesBack(base int) (int, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hostInfo names the machine and build every wall-clock number came from.
func hostInfo(commit string, seed int64) map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"commit":     commit,
		"cpu":        cpu,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"seed":       fmt.Sprint(seed),
	}
}

func printTable(r *result) {
	fmt.Printf("workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	keys := make([]string, 0, len(r.Host))
	for k := range r.Host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  host.%-28s %s\n", k, r.Host[k])
	}
	section := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Println(title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			line := fmt.Sprintf("  %-34s %14.4f %s", n, m[n].Value, m[n].Unit)
			if c, ok := r.Samples[n]; ok {
				line += fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Println(line)
		}
	}
	if r.Trace {
		section("per-layer metrics", r.Summary.Metrics)
		section("mean self time per span", r.Extra)
	} else {
		section("end-to-end metrics", r.Summary.Metrics)
		section("workload-specific end-to-end metrics", r.Extra)
	}
	fmt.Println("checks")
	for _, c := range r.Checks {
		fmt.Println("  " + c)
	}
	fmt.Printf("attempted %d failed %d\n", r.Summary.Attempted, r.Summary.Failed)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
