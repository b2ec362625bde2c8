package main

import (
	"fmt"
	"runtime"
	"strings"

	"mix"
	"mix/internal/compose"
	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/relstore"
	"mix/internal/rewrite"
	"mix/internal/sqlexec"
	"mix/internal/sqlgen"
	"mix/internal/translate"
	"mix/internal/xmas"
	"mix/internal/xquery"
)

// pipeline re-runs the mediator's query path stage by stage through the
// layers' public functions, with a span around each call: parse →
// compose/translate → rewrite → sqlgen → verify → compile → run. It mirrors
// Mediator.Query, QueryFrom and Open under a default Config (plus
// Parallelism), so its answers must equal theirs byte for byte; the traced
// run checks that they do.
type pipeline struct {
	med    *mix.Mediator
	labels map[string][]string
	full   engine.Options // Query and QueryFrom
	nav    engine.Options // Open: navigation runs tuple-at-a-time
	// twin is a store built from the same seed as the program's; each
	// shipped SQL statement is replayed on it so the program's own
	// counters stay exact. Nil skips the replay.
	twin *relstore.DB
	tr   *tracer
	l    *layers
	ids  int
}

// newPipeline mirrors the engine options and the schema knowledge the
// mediator derives from cfg and its relational sources.
func newPipeline(med *mix.Mediator, cfg mix.Config, dbs []*relstore.DB, twin *relstore.DB, l *layers) *pipeline {
	labels := map[string][]string{}
	for _, db := range dbs {
		for _, rel := range db.Relations() {
			t, _ := db.Table(rel)
			cols := make([]string, len(t.Schema.Columns))
			for i, c := range t.Schema.Columns {
				cols[i] = c.Name
			}
			labels[rel] = cols
		}
	}
	full := engine.Options{Parallelism: cfg.Parallelism, BatchExec: mix.DefaultBatchExec}
	nav := full
	nav.BatchExec = 1
	return &pipeline{med: med, labels: labels, full: full, nav: nav, twin: twin, tr: l.tr, l: l}
}

func (p *pipeline) freshID() string {
	p.ids++
	return fmt.Sprintf("result%d", p.ids)
}

// query is the traced Mediator.Query. Like every entry point here it also
// returns the first answer node, reached inside the engine.first_answer
// span.
func (p *pipeline) query(text string) (*qdom.Document, *qdom.Node, error) {
	q, err := p.parse(text)
	if err != nil {
		return nil, nil, err
	}
	var plan xmas.Op
	var tags map[xmas.Var]string
	if v := p.referencedView(q); v != nil {
		var res *compose.Result
		p.tr.do("compose.decontextualize", func() {
			res, err = compose.Decontextualize(&compose.OriginPlan{Plan: v.ComposePlan, Tags: v.Tags},
				qdom.Context{FromRoot: true}, q, v.Name, p.freshID())
		})
		if err != nil {
			return nil, nil, err
		}
		plan, tags = res.Plan, res.Tags
	} else {
		var res *translate.Result
		p.tr.do("translate.translate", func() { res, err = translate.Translate(q, p.freshID()) })
		if err != nil {
			return nil, nil, err
		}
		plan, tags = res.Plan, res.Tags
	}
	return p.optimizeAndRun(plan, tags)
}

// queryFrom is the traced Mediator.QueryFrom for a decontextualizable node.
func (p *pipeline) queryFrom(node *qdom.Node, text string) (*qdom.Document, *qdom.Node, error) {
	q, err := p.parse(text)
	if err != nil {
		return nil, nil, err
	}
	ctx, ok := node.Context()
	origin := node.Doc().Origin()
	if !ok || origin == nil {
		return nil, nil, fmt.Errorf("in-place query from a node without context")
	}
	var res *compose.Result
	p.tr.do("compose.decontextualize", func() {
		res, err = compose.Decontextualize(&compose.OriginPlan{Plan: origin.Plan, Tags: origin.Tags},
			ctx, q, "root", p.freshID())
	})
	if err != nil {
		return nil, nil, err
	}
	return p.optimizeAndRun(res.Plan, res.Tags)
}

// open is the traced Mediator.Open: the view was planned at definition, so
// only compilation and the run remain.
func (p *pipeline) open(view string) (*qdom.Document, *qdom.Node, error) {
	v, ok := p.med.View(view)
	if !ok {
		return nil, nil, fmt.Errorf("unknown view %s", view)
	}
	return p.compileAndRun(v.ComposePlan, v.ExecPlan, v.Tags, p.nav)
}

func (p *pipeline) parse(text string) (*xquery.Query, error) {
	var q *xquery.Query
	var err error
	p.tr.do("xquery.parse", func() { q, err = xquery.Parse(text) })
	return q, err
}

func (p *pipeline) referencedView(q *xquery.Query) *mix.View {
	for _, fb := range q.For {
		if fb.Source == "" {
			continue
		}
		if v, ok := p.med.View(strings.TrimPrefix(fb.Source, "&")); ok {
			return v
		}
		if v, ok := p.med.View(fb.Source); ok {
			return v
		}
	}
	return nil
}

func (p *pipeline) optimizeAndRun(plan xmas.Op, tags map[xmas.Var]string) (*qdom.Document, *qdom.Node, error) {
	var composePlan, execPlan xmas.Op
	var steps []rewrite.Step
	var err error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.tr.do("rewrite.optimize", func() {
		composePlan, steps, err = rewrite.Optimize(plan, rewrite.Options{ChildLabels: p.labels})
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, err
	}
	p.l.rewriteAllocs += int64(m1.Mallocs - m0.Mallocs)
	p.l.rewriteSteps += int64(len(steps))
	p.tr.do("sqlgen.push", func() { execPlan, err = sqlgen.Push(composePlan, p.med.Catalog()) })
	if err != nil {
		return nil, nil, err
	}
	return p.compileAndRun(composePlan, execPlan, tags, p.full)
}

func (p *pipeline) compileAndRun(composePlan, execPlan xmas.Op, tags map[xmas.Var]string, opts engine.Options) (*qdom.Document, *qdom.Node, error) {
	var err error
	p.tr.do("xmas.verify", func() { err = xmas.Verify(execPlan) })
	if err != nil {
		return nil, nil, err
	}
	var prog *engine.Program
	p.tr.do("engine.compile", func() { prog, err = engine.CompileWith(execPlan, p.med.Catalog(), opts) })
	if err != nil {
		return nil, nil, err
	}
	if err := p.replay(execPlan); err != nil {
		return nil, nil, err
	}
	var doc *qdom.Document
	var first *qdom.Node
	p.tr.do("engine.first_answer", func() {
		doc = qdom.NewDocument(prog.Run(), &qdom.Origin{Plan: composePlan, Tags: tags})
		first = doc.Root().Down()
	})
	return doc, first, nil
}

// replay runs every relational statement of the plan on the twin store:
// parse, plan and the blocking sort up to the first row, then the rest.
func (p *pipeline) replay(execPlan xmas.Op) error {
	var sqls []string
	xmas.Walk(execPlan, func(op xmas.Op) bool {
		if rq, ok := op.(*xmas.RelQuery); ok {
			sqls = append(sqls, rq.SQL)
		}
		return true
	})
	p.l.plans++
	p.l.statements += int64(len(sqls))
	if p.twin == nil || len(sqls) == 0 {
		return nil
	}
	s := p.tr.begin("sqlexec.replay")
	defer p.tr.end(s)
	for _, sql := range sqls {
		first := p.tr.begin("sqlexec.first_row")
		cur, _, err := sqlexec.ExecSQL(p.twin, sql)
		if err != nil {
			p.tr.end(first)
			return fmt.Errorf("replay %q: %w", sql, err)
		}
		_, ok := cur.Next()
		p.tr.end(first)
		n := int64(0)
		if ok {
			n = 1
			p.tr.do("sqlexec.rows", func() {
				for {
					if _, more := cur.Next(); !more {
						break
					}
					n++
				}
			})
		}
		cur.Close()
		p.l.rowsReplayed += max(n-1, 0)
	}
	return nil
}
