// Package sqlexec executes the sqlparse SQL subset against a relstore
// database with a volcano-style iterator pipeline: scans with pushed-down
// single-table filters, hash joins for equi-predicates (nested-loop joins
// otherwise), residual filters, an optional blocking sort for ORDER BY,
// projection, and streaming hash-based DISTINCT.
//
// Results are delivered through a relstore.Cursor so the mediator pulls rows
// one at a time; every delivered row increments the server's shipped-tuple
// counter. This is the partial-result interface the paper assumes of
// relational sources.
package sqlexec

import (
	"fmt"
	"sort"
	"strings"

	"mix/internal/relstore"
	"mix/internal/sqlparse"
	"mix/internal/xtree"
)

// ExecSQL parses and executes sql against db.
func ExecSQL(db *relstore.DB, sql string) (relstore.Cursor, *Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return Exec(db, q)
}

// Result describes the shape of the rows a cursor delivers.
type Result struct {
	Cols  []sqlparse.ColRef
	Types []relstore.Type
}

// Exec plans and runs q, returning a pipelined cursor over the result and
// the result-column metadata.
func Exec(db *relstore.DB, q *sqlparse.Select) (relstore.Cursor, *Result, error) {
	db.NoteQuery()
	pl, err := plan(db, q)
	if err != nil {
		return nil, nil, err
	}
	return &countingCursor{db: db, it: pl.it}, &Result{Cols: q.Cols, Types: pl.types}, nil
}

// iter is the internal volcano iterator.
type iter interface {
	next() ([]relstore.Datum, bool)
}

type countingCursor struct {
	db     *relstore.DB
	it     iter
	closed bool
}

func (c *countingCursor) Next() ([]relstore.Datum, bool) {
	if c.closed {
		return nil, false
	}
	row, ok := c.it.next()
	if !ok {
		return nil, false
	}
	c.db.NoteShipped(1)
	return row, true
}

func (c *countingCursor) Close() { c.closed = true }

// ---- planning ----

type binding struct {
	alias  string
	table  *relstore.Table
	rows   [][]relstore.Datum // snapshot taken under the store lock at bind time
	offset int                // position of this table's first column in the joined row
}

type planned struct {
	it    iter
	types []relstore.Type
}

func plan(db *relstore.DB, q *sqlparse.Select) (*planned, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("sqlexec: query has no FROM clause")
	}
	// Bind FROM entries.
	bindings := make([]binding, len(q.From))
	seen := map[string]bool{}
	offset := 0
	for i, tr := range q.From {
		t, ok := db.Table(tr.Relation)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown relation %s", tr.Relation)
		}
		if seen[tr.Alias] {
			return nil, fmt.Errorf("sqlexec: duplicate alias %s", tr.Alias)
		}
		seen[tr.Alias] = true
		// Rows are snapshotted under the store lock: concurrent Inserts
		// (producer goroutines under intra-query parallelism) append to the
		// live table, which the scan below must not observe mid-append.
		rows, _ := db.RowsSnapshot(tr.Relation)
		bindings[i] = binding{alias: tr.Alias, table: t, rows: rows, offset: offset}
		offset += len(t.Schema.Columns)
	}
	res := &resolver{bindings: bindings}

	// Classify predicates by the set of FROM entries they touch.
	type cpred struct {
		pred   sqlparse.Pred
		tables []int // indexes into bindings, sorted
	}
	var preds []cpred
	for _, p := range q.Where {
		ts, err := res.predTables(p)
		if err != nil {
			return nil, err
		}
		preds = append(preds, cpred{pred: p, tables: ts})
	}

	// Per-table scans with pushed-down single-table predicates.
	scans := make([]iter, len(bindings))
	for i, b := range bindings {
		var filters []compiledPred
		for _, cp := range preds {
			if len(cp.tables) == 1 && cp.tables[0] == i {
				f, err := res.compileLocal(cp.pred, i)
				if err != nil {
					return nil, err
				}
				filters = append(filters, f)
			}
		}
		scans[i] = &scanIter{rows: b.rows, filters: filters}
	}

	// Left-deep joins in FROM order.
	current := scans[0]
	joined := map[int]bool{0: true}
	for i := 1; i < len(bindings); i++ {
		// Find predicates that become evaluable once table i joins in, and
		// among them an equi-join predicate to drive a hash join.
		var applicable []compiledPred
		var hashL, hashR func([]relstore.Datum) relstore.Datum
		for _, cp := range preds {
			if len(cp.tables) < 2 {
				continue
			}
			touchesI := false
			allAvailable := true
			for _, t := range cp.tables {
				if t == i {
					touchesI = true
				} else if !joined[t] {
					allAvailable = false
				}
			}
			if !touchesI || !allAvailable {
				continue
			}
			f, err := res.compileJoined(cp.pred, i)
			if err != nil {
				return nil, err
			}
			if hashL == nil && cp.pred.Op == xtree.OpEQ && !cp.pred.Left.IsLit && !cp.pred.Right.IsLit {
				lt, _ := res.exprTable(cp.pred.Left)
				rt, _ := res.exprTable(cp.pred.Right)
				var leftRef, rightRef sqlparse.ColRef
				if lt == i {
					leftRef, rightRef = cp.pred.Right.Col, cp.pred.Left.Col
				} else if rt == i {
					leftRef, rightRef = cp.pred.Left.Col, cp.pred.Right.Col
				}
				if leftRef.Column != "" {
					lo, _, err1 := res.resolve(leftRef)
					ro, _, err2 := res.resolve(rightRef)
					if err1 == nil && err2 == nil {
						lo, ro := lo, ro
						hashL = func(row []relstore.Datum) relstore.Datum { return row[lo] }
						// right side is indexed within table i's own row
						riOff := ro - bindings[i].offset
						hashR = func(row []relstore.Datum) relstore.Datum { return row[riOff] }
						continue // handled by hash join itself
					}
				}
			}
			applicable = append(applicable, f)
		}
		if hashL != nil {
			current = newHashJoin(current, scans[i], hashL, hashR, applicable)
		} else {
			current = newNestedLoopJoin(current, scans[i], applicable)
		}
		joined[i] = true
	}

	// ORDER BY (blocking sort on datum order).
	if len(q.OrderBy) > 0 {
		keys := make([]int, len(q.OrderBy))
		for i, c := range q.OrderBy {
			off, _, err := res.resolve(c)
			if err != nil {
				return nil, err
			}
			keys[i] = off
		}
		current = &sortIter{in: current, keys: keys}
	}

	// Projection.
	outOffsets := make([]int, len(q.Cols))
	outTypes := make([]relstore.Type, len(q.Cols))
	for i, c := range q.Cols {
		off, typ, err := res.resolve(c)
		if err != nil {
			return nil, err
		}
		outOffsets[i] = off
		outTypes[i] = typ
	}
	current = &projectIter{in: current, offsets: outOffsets}

	if q.Distinct {
		current = &distinctIter{in: current, seen: map[string]bool{}}
	}
	return &planned{it: current, types: outTypes}, nil
}

// ---- name resolution ----

type resolver struct {
	bindings []binding
}

// resolve maps a column reference to its offset in the joined row.
func (r *resolver) resolve(c sqlparse.ColRef) (offset int, typ relstore.Type, err error) {
	found := -1
	for _, b := range r.bindings {
		if c.Qualifier != "" && b.alias != c.Qualifier {
			continue
		}
		if idx := b.table.Schema.ColIndex(c.Column); idx >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqlexec: ambiguous column %s", c)
			}
			found = b.offset + idx
			typ = b.table.Schema.Columns[idx].Type
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqlexec: unknown column %s", c)
	}
	return found, typ, nil
}

// exprTable returns the binding index an expression's column belongs to,
// or -1 for literals.
func (r *resolver) exprTable(e sqlparse.Expr) (int, error) {
	if e.IsLit {
		return -1, nil
	}
	for i, b := range r.bindings {
		if e.Col.Qualifier != "" && b.alias != e.Col.Qualifier {
			continue
		}
		if b.table.Schema.ColIndex(e.Col.Column) >= 0 {
			return i, nil
		}
	}
	return -1, fmt.Errorf("sqlexec: unknown column %s", e.Col)
}

func (r *resolver) predTables(p sqlparse.Pred) ([]int, error) {
	set := map[int]bool{}
	for _, e := range []sqlparse.Expr{p.Left, p.Right} {
		t, err := r.exprTable(e)
		if err != nil {
			return nil, err
		}
		if t >= 0 {
			set[t] = true
		}
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out, nil
}

// compiledPred evaluates a predicate over a row.
type compiledPred func(row []relstore.Datum) bool

// compileLocal compiles a predicate over a single table's own row (offsets
// relative to that table).
func (r *resolver) compileLocal(p sqlparse.Pred, tableIdx int) (compiledPred, error) {
	return r.compile(p, r.bindings[tableIdx].offset)
}

// compileJoined compiles a predicate over the joined row; the right input of
// the in-progress join occupies its global offsets already.
func (r *resolver) compileJoined(p sqlparse.Pred, _ int) (compiledPred, error) {
	return r.compile(p, 0)
}

func (r *resolver) compile(p sqlparse.Pred, rebase int) (compiledPred, error) {
	return CompilePred(p, func(c sqlparse.ColRef) (int, relstore.Type, error) {
		off, typ, err := r.resolve(c)
		return off - rebase, typ, err
	})
}

// CompilePred compiles one WHERE conjunct over a row; col maps a column
// reference to its offset in the row and its type. A literal is parsed with
// the opposing column's type and stays a string when it does not parse as
// one. Operands compare by xtree.Atom.Compare; a literal is parsed once.
func CompilePred(p sqlparse.Pred, col func(sqlparse.ColRef) (int, relstore.Type, error)) (func([]relstore.Datum) bool, error) {
	operand := func(e, other sqlparse.Expr) (func([]relstore.Datum) xtree.Atom, error) {
		if e.IsLit {
			typ := relstore.TString
			if !other.IsLit {
				if _, t, err := col(other.Col); err == nil {
					typ = t
				}
			}
			d, err := relstore.ParseDatum(typ, e.Lit)
			if err != nil {
				d = relstore.Str(e.Lit)
			}
			a := d.Atom()
			return func([]relstore.Datum) xtree.Atom { return a }, nil
		}
		off, _, err := col(e.Col)
		if err != nil {
			return nil, err
		}
		return func(row []relstore.Datum) xtree.Atom { return row[off].Atom() }, nil
	}
	lf, err := operand(p.Left, p.Right)
	if err != nil {
		return nil, err
	}
	rf, err := operand(p.Right, p.Left)
	if err != nil {
		return nil, err
	}
	op := p.Op
	return func(row []relstore.Datum) bool { return op.Holds(lf(row).Compare(rf(row))) }, nil
}

// ---- iterators ----

type scanIter struct {
	rows    [][]relstore.Datum
	filters []compiledPred
	pos     int
}

func (s *scanIter) next() ([]relstore.Datum, bool) {
outer:
	for s.pos < len(s.rows) {
		row := s.rows[s.pos]
		s.pos++
		for _, f := range s.filters {
			if !f(row) {
				continue outer
			}
		}
		return row, true
	}
	return nil, false
}

func (s *scanIter) reset() { s.pos = 0 }

type nestedLoopJoin struct {
	left, right iter
	rightReset  func()
	filters     []compiledPred
	leftRow     []relstore.Datum
	started     bool
	done        bool
}

func newNestedLoopJoin(left iter, right iter, filters []compiledPred) iter {
	j := &nestedLoopJoin{left: left, right: right, filters: filters}
	if s, ok := right.(*scanIter); ok {
		j.rightReset = s.reset
	} else {
		// Materialize the right side so it can be re-scanned.
		var rows [][]relstore.Datum
		for {
			r, ok := right.next()
			if !ok {
				break
			}
			rows = append(rows, r)
		}
		s := &scanIter{rows: rows}
		j.right = s
		j.rightReset = s.reset
	}
	return j
}

func (j *nestedLoopJoin) next() ([]relstore.Datum, bool) {
	if j.done {
		return nil, false
	}
	for {
		if !j.started {
			lr, ok := j.left.next()
			if !ok {
				j.done = true
				return nil, false
			}
			j.leftRow = lr
			j.rightReset()
			j.started = true
		}
		rr, ok := j.right.next()
		if !ok {
			j.started = false
			continue
		}
		row := make([]relstore.Datum, 0, len(j.leftRow)+len(rr))
		row = append(row, j.leftRow...)
		row = append(row, rr...)
		pass := true
		for _, f := range j.filters {
			if !f(row) {
				pass = false
				break
			}
		}
		if pass {
			return row, true
		}
	}
}

type hashJoin struct {
	left        iter
	keyL        func([]relstore.Datum) relstore.Datum
	table       map[string][][]relstore.Datum
	filters     []compiledPred
	leftRow     []relstore.Datum
	matches     [][]relstore.Datum
	matchIdx    int
	built, done bool
	buildRight  func() // lazily builds the hash table on first pull
}

func newHashJoin(left, right iter, keyL, keyR func([]relstore.Datum) relstore.Datum, filters []compiledPred) iter {
	j := &hashJoin{left: left, keyL: keyL, filters: filters}
	j.buildRight = func() {
		j.table = map[string][][]relstore.Datum{}
		for {
			r, ok := right.next()
			if !ok {
				break
			}
			k := keyR(r).Atom().Key()
			j.table[k] = append(j.table[k], r)
		}
	}
	return j
}

func (j *hashJoin) next() ([]relstore.Datum, bool) {
	if j.done {
		return nil, false
	}
	if !j.built {
		j.buildRight()
		j.built = true
	}
	for {
		for j.matchIdx < len(j.matches) {
			rr := j.matches[j.matchIdx]
			j.matchIdx++
			row := make([]relstore.Datum, 0, len(j.leftRow)+len(rr))
			row = append(row, j.leftRow...)
			row = append(row, rr...)
			pass := true
			for _, f := range j.filters {
				if !f(row) {
					pass = false
					break
				}
			}
			if pass {
				return row, true
			}
		}
		lr, ok := j.left.next()
		if !ok {
			j.done = true
			return nil, false
		}
		j.leftRow = lr
		j.matches = j.table[j.keyL(lr).Atom().Key()]
		j.matchIdx = 0
	}
}

type sortIter struct {
	in     iter
	keys   []int
	rows   [][]relstore.Datum
	pos    int
	sorted bool
}

func (s *sortIter) next() ([]relstore.Datum, bool) {
	if !s.sorted {
		for {
			r, ok := s.in.next()
			if !ok {
				break
			}
			s.rows = append(s.rows, r)
		}
		sort.SliceStable(s.rows, func(i, j int) bool {
			for _, k := range s.keys {
				c := relstore.Compare(s.rows[i][k], s.rows[j][k])
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		s.sorted = true
	}
	if s.pos >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

type projectIter struct {
	in      iter
	offsets []int
}

func (p *projectIter) next() ([]relstore.Datum, bool) {
	row, ok := p.in.next()
	if !ok {
		return nil, false
	}
	out := make([]relstore.Datum, len(p.offsets))
	for i, off := range p.offsets {
		out[i] = row[off]
	}
	return out, true
}

type distinctIter struct {
	in   iter
	seen map[string]bool
}

func (d *distinctIter) next() ([]relstore.Datum, bool) {
	for {
		row, ok := d.in.next()
		if !ok {
			return nil, false
		}
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.String())
			b.WriteByte('\x00')
		}
		k := b.String()
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		return row, true
	}
}
