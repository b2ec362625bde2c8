// Package experiment implements the measurement harnesses for the
// performance claims of the paper (EXPERIMENTS.md, experiments E10-E14).
// The paper's evaluation is qualitative; these harnesses turn each claim
// into numbers — wall time and, more importantly, tuples shipped between
// mediator and sources, the quantity MIX's lazy evaluation and query
// pushdown minimize. cmd/mixbench prints the tables; bench_test.go wraps
// the same code as Go benchmarks.
package experiment

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"mix"
	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/rewrite"
	"mix/internal/source"
	"mix/internal/wire"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xmlio"
	"mix/internal/xtree"
)

// Table is one experiment's output.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// mediatorOver builds a mediator over a generated customers/orders database
// with the Q1 view registered as rootv.
func mediatorOver(nCustomers, ordersPer int, cfg mix.Config) *mix.Mediator {
	med := mix.NewWith(cfg)
	med.AddRelationalSource(workload.ScaleDB("db1", nCustomers, ordersPer, 42))
	must(med.AliasSource("&root1", "&db1.customer"))
	must(med.AliasSource("&root2", "&db1.orders"))
	mustView(med.DefineView("rootv", workload.Q1))
	return med
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustView(_ *mix.View, err error) {
	if err != nil {
		panic(err)
	}
}

// browse visits the first k CustRec children of a lazy document, descending
// into the customer element and the first OrderInfo of each — the "browse a
// few results and move on" behaviour of paper Section 1.
func browse(doc *mix.Document, k int) int {
	visited := 0
	node := doc.Root().Down()
	for node != nil && visited < k {
		if c := node.Down(); c != nil { // customer element
			c.Down() // its first column
			if oi := c.Right(); oi != nil {
				oi.Down() // the order tuple
			}
		}
		visited++
		node = node.Right()
	}
	return visited
}

// LazyVsEager is experiment E10: time-to-results and tuples shipped as a
// function of how much of the answer the client browses, lazy QDOM vs. the
// conventional full-answer mediator.
func LazyVsEager(sizes []int, ordersPer int, browseKs []int) Table {
	t := Table{
		Title:  "E10 lazy vs eager (Q1 view; browse k of N customers)",
		Note:   "paper claim (§1,§4): demand-driven evaluation fetches only what navigation needs",
		Header: []string{"N", "k", "lazy_shipped", "eager_shipped", "lazy_ms", "eager_ms"},
	}
	for _, n := range sizes {
		for _, k := range browseKs {
			if k > n {
				continue
			}
			// Lazy: open the view, browse k.
			medL := mediatorOver(n, ordersPer, mix.Config{})
			medL.ResetStats()
			start := time.Now()
			docL, err := medL.Open("rootv")
			must(err)
			browse(docL, k)
			lazyDur := time.Since(start)
			docL.Close()
			lazyShipped := medL.Stats().TuplesShipped

			// Eager: materialize everything, then browse k (free).
			medE := mediatorOver(n, ordersPer, mix.Config{})
			medE.ResetStats()
			start = time.Now()
			docE, err := medE.Open("rootv")
			must(err)
			docE.Materialize()
			eagerDur := time.Since(start)
			docE.Close()
			eagerShipped := medE.Stats().TuplesShipped

			t.Rows = append(t.Rows, []string{
				itoa(n), itoa(k),
				i64(lazyShipped), i64(eagerShipped),
				ms(lazyDur), ms(eagerDur),
			})
		}
	}
	return t
}

// Composition is experiment E11: tuples shipped for a selective query over
// the view, naive composition vs. the full rewrite+pushdown pipeline,
// sweeping the selection threshold (order values are uniform in
// [0, 100000), so threshold T keeps ≈(1-T/100000) of orders).
func Composition(sizes []int, thresholds []int64) Table {
	t := Table{
		Title:  "E11 composition: naive vs rewritten+pushed (customers with an order > T)",
		Note:   "paper claim (§6): pushing the combined conditions transfers the minimum amount of data",
		Header: []string{"N", "T", "naive_shipped", "optimized_shipped", "naive_ms", "opt_ms", "results"},
	}
	for _, n := range sizes {
		for _, threshold := range thresholds {
			query := fmt.Sprintf(`
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > %d
RETURN $R`, threshold)

			run := func(cfg mix.Config) (int64, time.Duration, int) {
				med := mediatorOver(n, 3, cfg)
				med.ResetStats()
				start := time.Now()
				doc, err := med.Query(query)
				must(err)
				m := doc.Materialize()
				must(doc.Err())
				return med.Stats().TuplesShipped, time.Since(start), len(m.Children)
			}
			naiveShipped, naiveDur, nRes := run(mix.Config{DisableRewrite: true, DisablePushdown: true})
			optShipped, optDur, oRes := run(mix.Config{})
			if nRes != oRes {
				panic(fmt.Sprintf("experiment: result divergence %d vs %d", nRes, oRes))
			}
			t.Rows = append(t.Rows, []string{
				itoa(n), i64(threshold),
				i64(naiveShipped), i64(optShipped),
				ms(naiveDur), ms(optDur), itoa(nRes),
			})
		}
	}
	return t
}

// Decontext is experiment E12: answering an in-place query from a CustRec
// node by decontextualization vs. by materializing the subtree and
// evaluating locally (the strategy the paper rejects).
func Decontext(nCustomers int, ordersPers []int) Table {
	t := Table{
		Title:  "E12 in-place query: decontextualize vs materialize-subtree",
		Note:   "paper claim (§5): conveying the node's identity to the sources beats fetching the subtree",
		Header: []string{"N", "orders/cust", "decon_shipped", "mat_shipped", "decon_ms", "mat_ms"},
	}
	inPlace := `
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 50000
RETURN $O`
	for _, per := range ordersPers {
		navTo := func(med *mix.Mediator) *mix.Node {
			doc, err := med.Open("rootv")
			must(err)
			return doc.Root().Down() // first CustRec
		}

		medD := mediatorOver(nCustomers, per, mix.Config{})
		node := navTo(medD)
		medD.ResetStats()
		start := time.Now()
		docD, err := medD.QueryFrom(node, inPlace)
		must(err)
		docD.Materialize()
		deconDur := time.Since(start)
		deconShipped := medD.Stats().TuplesShipped

		medM := mediatorOver(nCustomers, per, mix.Config{})
		nodeM := navTo(medM)
		medM.ResetStats()
		start = time.Now()
		docM, err := medM.QueryFromMaterialized(nodeM, inPlace)
		must(err)
		docM.Materialize()
		matDur := time.Since(start)
		matShipped := medM.Stats().TuplesShipped

		t.Rows = append(t.Rows, []string{
			itoa(nCustomers), itoa(per),
			i64(deconShipped), i64(matShipped),
			ms(deconDur), ms(matDur),
		})
	}
	return t
}

// GroupBy is experiment E13: the stateless presorted group-by of Table 1 vs
// the buffering stateful one, measured by what reaching the FIRST result
// group costs — in source transfer, in mediator-side operator work (tuples
// produced across the plan), and in latency.
func GroupBy(sizes []int, ordersPer int) Table {
	t := Table{
		Title:  "E13 group-by: presorted (stateless, Table 1) vs stateful (buffered)",
		Note:   "paper claim (§4): with sorted input the stateless gBy streams; otherwise buffers are needed",
		Header: []string{"N", "variant", "shipped_first_group", "mediator_tuples", "ms_first_group"},
	}
	for _, n := range sizes {
		for _, variant := range []string{"presorted", "stateful"} {
			med := mediatorOver(n, ordersPer, mix.Config{})
			view, _ := med.View("rootv")
			plan := view.ExecPlan
			if variant == "stateful" {
				plan = forceStateful(plan)
			}
			prog, err := engine.Compile(plan, med.Catalog())
			must(err)
			med.ResetStats()
			start := time.Now()
			res, metrics := prog.RunWithMetrics()
			doc := qdom.NewDocument(res, nil)
			first := doc.Root().Down()
			if first != nil {
				if c := first.Down(); c != nil {
					c.Right() // first OrderInfo
				}
			}
			dur := time.Since(start)
			t.Rows = append(t.Rows, []string{
				itoa(n), variant,
				i64(med.Stats().TuplesShipped), i64(metrics.Total()), ms(dur),
			})
		}
	}
	return t
}

// forceStateful clones the plan with every group-by downgraded to the
// buffering implementation.
func forceStateful(plan xmas.Op) xmas.Op {
	clone := xmas.Clone(plan)
	var fix func(op xmas.Op) xmas.Op
	fix = func(op xmas.Op) xmas.Op {
		ins := op.Inputs()
		newIns := make([]xmas.Op, len(ins))
		for i, in := range ins {
			newIns[i] = fix(in)
		}
		out := op.WithInputs(newIns...)
		if a, ok := out.(*xmas.Apply); ok {
			a.Plan = fix(a.Plan)
		}
		if gb, ok := out.(*xmas.GroupBy); ok {
			gb.Presorted = false
		}
		return out
	}
	return fix(clone)
}

// Ablation is experiment E14: which optimizer stages buy how much, measured
// on the Figure 12 composition.
func Ablation(nCustomers int) Table {
	t := Table{
		Title:  "E14 optimizer ablation (Figure 12 query over the Q1 view)",
		Note:   "paper §6 bullets: object-construction removal, condition combination, semijoin pushdown",
		Header: []string{"variant", "shipped", "mediator_tuples", "ms"},
	}
	query := `
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > 90000
RETURN $R`
	variants := []struct {
		name string
		cfg  mix.Config
	}{
		{"full", mix.Config{}},
		{"no-semijoin-push", mix.Config{RewriteOptions: rewrite.Options{NoSemijoinPush: true}}},
		{"no-dead-elim", mix.Config{RewriteOptions: rewrite.Options{NoDeadElim: true}}},
		{"no-sql-pushdown", mix.Config{DisablePushdown: true}},
		{"no-rewrite", mix.Config{DisableRewrite: true, DisablePushdown: true}},
	}
	var baseline int
	for _, v := range variants {
		med := mediatorOver(nCustomers, 3, v.cfg)
		med.ResetStats()
		start := time.Now()
		doc, metrics, err := med.QueryWithMetrics(query)
		must(err)
		m := doc.Materialize()
		must(doc.Err())
		dur := time.Since(start)
		if v.name == "full" {
			baseline = len(m.Children)
		} else if len(m.Children) != baseline {
			panic(fmt.Sprintf("experiment: ablation %s diverged: %d vs %d",
				v.name, len(m.Children), baseline))
		}
		t.Rows = append(t.Rows, []string{
			v.name, i64(med.Stats().TuplesShipped), i64(metrics.Total()), ms(dur),
		})
	}
	return t
}

// ---- E19: vectorized execution, path index, binary wire codec ----

// VectorResult is E19's machine-readable output (BENCH_vector.json): the
// CPU-bound θ-join and unfused select-over-product times at window 64, the
// dataguide index against the label walk, and the bytes-on-wire comparison
// between the JSON and binary codecs.
type VectorResult struct {
	JoinVecMs float64 `json:"join_vec_ms"` // all runs
	// SelectUnfusedMs is one run of the select-over-product plan with fusion
	// blocked by a project.
	SelectUnfusedMs float64 `json:"select_unfused_ms"`
	GetDWalkMs      float64 `json:"getd_walk_ms"`
	GetDIndexMs     float64 `json:"getd_index_ms"`
	GetDSpeedup     float64 `json:"getd_speedup"`
	WireJSONBytes   int64   `json:"wire_json_bytes"`
	WireBinBytes    int64   `json:"wire_binary_bytes"`
	WireBinRatio    float64 `json:"wire_binary_over_json"`

	// WindowSweep records the BatchExec window-cap sweep over the mediator
	// workloads: the CPU-bound join microbench and a full E10-style query
	// over the view per cap, plus the tuples a browse-1 ships (navigation
	// sessions always run at a window of one row, so this must not grow
	// with the cap). BestWindow is the sweet spot by combined time;
	// DefaultBatchExec is the window mix.Config bakes in as its zero-value
	// default.
	WindowSweep      []WindowPoint `json:"window_sweep,omitempty"`
	BestWindow       int           `json:"best_window,omitempty"`
	DefaultBatchExec int           `json:"default_batch_exec,omitempty"`
}

// WindowPoint is one BatchExec cap in the window sweep.
type WindowPoint struct {
	Window        int     `json:"window"`
	JoinMs        float64 `json:"join_ms"`
	ViewMs        float64 `json:"view_ms"`
	BrowseShipped int64   `json:"browse1_shipped"`
}

// Check gates CI on the headline claims: the CPU-bound join must cost about
// the same at every window cap, a browse-1 must ship the same tuples at
// every cap, and the negotiated binary codec must move fewer bytes than
// JSON for the same session.
func (r VectorResult) Check() error {
	if r.WireBinBytes >= r.WireJSONBytes {
		return fmt.Errorf("vector check: binary codec moved %d bytes, JSON %d", r.WireBinBytes, r.WireJSONBytes)
	}
	// Every cap runs the same columnar operators, so a cap whose join takes
	// over twice the window-64 time pays a per-row cost the window was not
	// meant to add — at window 1, the browsing window, that is what a
	// per-pair interpreter looks like.
	w64 := -1.0
	for _, p := range r.WindowSweep {
		if p.Window == 64 {
			w64 = p.JoinMs
		}
	}
	if w64 < 0 {
		return fmt.Errorf("vector check: window sweep has no window-64 point")
	}
	for _, p := range r.WindowSweep {
		if p.JoinMs > 2*w64 {
			return fmt.Errorf("vector check: join took %.1fms at window %d, over 2x the %.1fms at window 64",
				p.JoinMs, p.Window, w64)
		}
	}
	// A browse-1 must ship the same tuples at every window cap: navigation
	// sessions run at a window of one row by design, and this gate is the
	// regression fence on that contract.
	for _, p := range r.WindowSweep {
		if p.BrowseShipped != r.WindowSweep[0].BrowseShipped {
			return fmt.Errorf("vector check: browse-1 shipped %d tuples at window %d, %d at window %d — batch overshoot",
				p.BrowseShipped, p.Window, r.WindowSweep[0].BrowseShipped, r.WindowSweep[0].Window)
		}
	}
	return nil
}

// WriteVectorJSON records the measured result with run metadata, in the
// style of the other BENCH_*.json baselines.
func WriteVectorJSON(path, workload string, r VectorResult) error {
	doc := struct {
		Suite    string       `json:"suite"`
		Workload string       `json:"workload"`
		Command  string       `json:"command"`
		Date     string       `json:"date"`
		Results  VectorResult `json:"results"`
	}{
		Suite:    "mixbench vector (E19)",
		Workload: workload,
		Command:  "go run ./cmd/mixbench -exp vector -check",
		Date:     time.Now().Format("2006-01-02"),
		Results:  r,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// numList builds <list> of n <item><v>value</v></item> children.
func numList(prefix string, n int, val func(i int) int) *xtree.Node {
	items := make([]*xtree.Node, n)
	for i := range items {
		items[i] = xtree.NewElem(xtree.ID(fmt.Sprintf("%s.%d", prefix, i)), "item",
			xtree.NewElem(xtree.ID(fmt.Sprintf("%s.%d.v", prefix, i)), "v",
				xtree.Text(strconv.Itoa(val(i)))))
	}
	return xtree.NewElem(xtree.ID(prefix), "list", items...)
}

// timePlan compiles and runs plan `runs` times under opts, returning the
// total wall time and the first run's serialized answer (divergence check).
func timePlan(plan xmas.Op, cat *source.Catalog, opts engine.Options, runs int) (time.Duration, string) {
	var out string
	start := time.Now()
	for i := 0; i < runs; i++ {
		prog, err := engine.CompileWith(plan, cat, opts)
		must(err)
		res := prog.Run()
		m := res.Materialize()
		must(res.Err())
		if i == 0 {
			out = xmlio.Serialize(m)
		}
	}
	return time.Since(start), out
}

// fastestPlan is timePlan repeated three times, keeping the fastest total:
// the window-sweep gate compares timings against each other, and one
// repetition's host noise must not decide it.
func fastestPlan(plan xmas.Op, cat *source.Catalog, opts engine.Options, runs int) (time.Duration, string) {
	best, out := timePlan(plan, cat, opts, runs)
	for i := 1; i < 3; i++ {
		d, _ := timePlan(plan, cat, opts, runs)
		best = min(best, d)
	}
	return best, out
}

// srcOverPath is mkSrc → getD: bind every node reached by path from the
// document's top-level elements (mkSrc ranges over the root's children, so
// the path starts at their labels).
func srcOverPath(srcID string, rootVar, outVar xmas.Var, path ...string) xmas.Op {
	return &xmas.GetD{
		In:   &xmas.MkSrc{SrcID: srcID, Out: rootVar},
		From: rootVar,
		Path: path,
		Out:  outVar,
	}
}

// wireSessionBytes runs one E15-style deep batched walk of the Q1 view over
// an in-memory connection and returns the client's total bytes on the wire,
// with or without the negotiated binary codec.
func wireSessionBytes(nCustomers int, binaryCodec bool) int64 {
	med := mediatorOver(nCustomers, 3, mix.Config{})
	server, client := net.Pipe()
	srv := wire.NewServer(med)
	srv.BinaryWire = binaryCodec
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	c := wire.NewClientConfig(client, wire.ClientConfig{BinaryWire: binaryCodec})
	defer c.Close()
	root, err := c.Open("rootv")
	must(err)
	node, err := root.DownScan(wire.ScanConfig{Deep: true})
	must(err)
	for node != nil {
		_, err := node.Materialize()
		must(err)
		next, err := node.Right()
		must(err)
		must(node.Release())
		node = next
	}
	must(root.Release())
	st := c.WireStats()
	if st.BinaryWire != binaryCodec {
		panic(fmt.Sprintf("experiment: wire codec negotiation: binary=%v, want %v", st.BinaryWire, binaryCodec))
	}
	return st.BytesSent + st.BytesRecv
}

// Vectorized is experiment E19: the columnar operators on CPU-bound local
// plans across window caps, the dataguide path index vs the label walk, and
// the binary wire codec vs JSON on a deep batched view walk.
func Vectorized(nJoin, runs int) (Table, VectorResult) {
	var r VectorResult
	t := Table{
		Title: "E19 vectorized execution & wire codec",
		Note: "every window cap and the path index must answer byte-identically;\n" +
			"the binary codec must move fewer bytes than JSON for the same session",
		Header: []string{"microbench", "baseline", "optimized", "speedup"},
	}

	// CPU-bound NL join: every (left, right) pair is compared; the join
	// pre-resolves the right column once and compares atoms per pair.
	cat := source.NewCatalog()
	cat.AddXMLDoc("&vl", numList("&vl", nJoin, func(i int) int { return i }))
	cat.AddXMLDoc("&vr", numList("&vr", nJoin, func(i int) int {
		if i == 0 {
			return -1 // a single matching row keeps the join non-degenerate
		}
		return nJoin + i
	}))
	joinCond := xmas.NewVarVarCond("$lv", xtree.OpGT, "$rv")
	joinPlan := &xmas.TD{
		In: &xmas.Join{
			L:    srcOverPath("&vl", "$L", "$lv", "item", "v"),
			R:    srcOverPath("&vr", "$R", "$rv", "item", "v"),
			Cond: &joinCond,
		},
		V: "$lv",
	}
	must(xmas.Verify(joinPlan))
	joinDur, joinOut := timePlan(joinPlan, cat, engine.Options{BatchExec: 64}, runs)
	r.JoinVecMs = msF(joinDur)

	// The same predicate as a select over the cross product (a
	// condition-less join). Fusion makes it the θ-join above, so it must
	// answer the same; a project between the select and the product blocks
	// fusion, and timing that plan prices what fusion saves: every pair
	// merged and shipped through the select.
	product := &xmas.Join{
		L: srcOverPath("&vl", "$L", "$lv", "item", "v"),
		R: srcOverPath("&vr", "$R", "$rv", "item", "v"),
	}
	fusedPlan := &xmas.TD{In: &xmas.Select{In: product, Cond: joinCond}, V: "$lv"}
	must(xmas.Verify(fusedPlan))
	if _, out := timePlan(fusedPlan, cat, engine.Options{BatchExec: 64}, 1); out != joinOut {
		panic("experiment: fused select-over-product diverged from the join")
	}
	unfusedPlan := &xmas.TD{
		In: &xmas.Select{In: &xmas.Project{In: product, Vars: product.Schema()}, Cond: joinCond},
		V:  "$lv",
	}
	must(xmas.Verify(unfusedPlan))
	// One run only: the unfused plan is two orders of magnitude slower.
	selDur, selOut := timePlan(unfusedPlan, cat, engine.Options{BatchExec: 64}, 1)
	if selOut != joinOut {
		panic("experiment: unfused select-over-product diverged from the join")
	}
	r.SelectUnfusedMs = msF(selDur)
	joinRun := joinDur / time.Duration(runs)
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("select over %d pairs, one run: unfused vs fused", nJoin*nJoin),
		ms(selDur) + "ms unfused", ms(joinRun) + "ms fused (θ-join)", speedup(ratio(selDur, joinRun)),
	})

	// getD over a bushy document: the walk explores every label-matching
	// prefix chain, the dataguide jumps to the 1%% of chains that complete.
	const fanout = 120
	idxCat := source.NewCatalog()
	outer := make([]*xtree.Node, fanout)
	for i := range outer {
		inner := make([]*xtree.Node, fanout)
		for j := range inner {
			id := fmt.Sprintf("&vp.%d.%d", i, j)
			if j%100 == 0 {
				inner[j] = xtree.NewElem(xtree.ID(id), "a",
					xtree.NewElem(xtree.ID(id+".v"), "v", xtree.Text(strconv.Itoa(i*fanout+j))))
			} else {
				inner[j] = xtree.NewElem(xtree.ID(id), "a")
			}
		}
		outer[i] = xtree.NewElem(xtree.ID(fmt.Sprintf("&vp.%d", i)), "a", inner...)
	}
	idxCat.AddXMLDoc("&vp", xtree.NewElem("&vp", "list", outer...))
	pathPlan := &xmas.TD{In: srcOverPath("&vp", "$D", "$v", "a", "a", "v"), V: "$v"}
	must(xmas.Verify(pathPlan))
	pathRuns := runs * 40 // the probe is fast; repeat for a measurable window
	walkDur, walkOut := timePlan(pathPlan, idxCat, engine.Options{}, pathRuns)
	idxDur, idxOut := timePlan(pathPlan, idxCat, engine.Options{PathIndex: true}, pathRuns)
	if walkOut != idxOut {
		panic("experiment: path-index getD diverged from the walk")
	}
	r.GetDWalkMs = msF(walkDur)
	r.GetDIndexMs = msF(idxDur)
	r.GetDSpeedup = ratio(walkDur, idxDur)
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("getD list/a/a/v, %d chains", fanout*fanout),
		ms(walkDur) + "ms", ms(idxDur) + "ms", speedup(r.GetDSpeedup),
	})

	// BatchExec window-cap sweep over the mediator workloads: the CPU-bound
	// join microbench and a full E10-style query over the Q1 view, per cap,
	// plus the tuples a browse-1 ships. The browse column must not move with
	// the cap: navigation sessions (Open) always run at a window of one row
	// — that design is what made a wide default window safe, and this sweep
	// is the regression gate on it.
	const sweepN, sweepOrders = 300, 5
	const sweepQ = `FOR $R IN document(rootv)/CustRec RETURN $R`
	for _, w := range []int{1, 8, 16, 32, 64, 128, 256} {
		jd, jOut := fastestPlan(joinPlan, cat, engine.Options{BatchExec: w}, runs)
		if jOut != joinOut {
			panic("experiment: window-sweep join diverged from window 64")
		}
		medV := mediatorOver(sweepN, sweepOrders, mix.Config{BatchExec: w})
		start := time.Now()
		docV, err := medV.Query(sweepQ)
		must(err)
		docV.Materialize()
		must(docV.Err())
		viewDur := time.Since(start)
		docV.Close()

		medB := mediatorOver(sweepN, sweepOrders, mix.Config{BatchExec: w})
		medB.ResetStats()
		docB, err := medB.Open("rootv")
		must(err)
		browse(docB, 1)
		shipped := medB.Stats().TuplesShipped
		docB.Close()

		r.WindowSweep = append(r.WindowSweep, WindowPoint{
			Window: w, JoinMs: msF(jd), ViewMs: msF(viewDur), BrowseShipped: shipped,
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("window cap %d", w),
			fmt.Sprintf("join %sms", ms(jd)),
			fmt.Sprintf("view %sms", ms(viewDur)),
			fmt.Sprintf("browse-1 ships %d", shipped),
		})
	}
	best := r.WindowSweep[0]
	for _, p := range r.WindowSweep {
		if p.JoinMs+p.ViewMs < best.JoinMs+best.ViewMs {
			best = p
		}
	}
	r.BestWindow = best.Window
	r.DefaultBatchExec = mix.DefaultBatchExec

	// Bytes on the wire for the same deep batched walk, JSON vs negotiated
	// binary (the E15 scenario's transfer, re-measured under the codec).
	r.WireJSONBytes = wireSessionBytes(200, false)
	r.WireBinBytes = wireSessionBytes(200, true)
	r.WireBinRatio = float64(r.WireBinBytes) / float64(r.WireJSONBytes)
	t.Rows = append(t.Rows, []string{
		"wire bytes, deep walk of 200 CustRec",
		fmt.Sprintf("%dB json", r.WireJSONBytes),
		fmt.Sprintf("%dB binary", r.WireBinBytes),
		fmt.Sprintf("%.2fx", 1/r.WireBinRatio),
	})
	return t, r
}

func msF(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func ratio(base, opt time.Duration) float64 {
	if opt <= 0 {
		return 0
	}
	return float64(base) / float64(opt)
}

func speedup(v float64) string { return fmt.Sprintf("%.1fx", v) }

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func i64(v int64) string { return fmt.Sprintf("%d", v) }

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
