package workload

import (
	"fmt"
	"math/rand"

	"mix/internal/xmas"
	"mix/internal/xtree"
)

// plangen builds random XMAS plans directly over the paper catalog — no
// XQuery surface syntax in between — so the rewriter and the static plan
// verifier are exercised on plan shapes the translator never emits. The
// decoder is total: every byte string (and every rng stream) maps to a
// plan, which makes PlanFromSeed a useful fuzz entry point — the fuzzer
// mutates plan structure instead of fighting a parser.
//
// One decode in sixteen deliberately corrupts a grouped plan by letting the
// nested plan collect a variable the partition never binds. Such plans pass
// xmas.Validate (the nested plan is internally consistent) but must be
// rejected by xmas.Verify; before the verifier existed this shape panicked
// inside the engine's tuple accessors.

// genSource describes one relational source of the paper database as the
// wrapper exposes it: row elements labeled with the relation name, one
// child element per column.
type genSource struct {
	srcID  string
	label  string
	fields []string
}

var genSources = []genSource{
	{"&root1", "customer", []string{"id", "name", "addr"}},
	{"&root2", "orders", []string{"orid", "cid", "value"}},
}

// genConsts holds selection constants per field: values present in PaperDB
// plus one absent value, so generated selections sometimes keep and
// sometimes drop rows. The numeric fields also get hostile spellings —
// leading zeros and signs, a trailing fraction, NaN and an overflowing
// numeral — that equal a stored value (or nothing) only under the
// comparison kernel's rules, so pushdown, the scan cache and mediator
// evaluation must agree on them.
var genConsts = map[string][]string{
	"customer.id":   {"XYZ123", "DEF345", "ABC000"},
	"customer.name": {"XYZInc.", "DEFCorp.", "NoSuchInc."},
	"customer.addr": {"LosAngeles", "NewYork", "Nowhere"},
	"orders.orid":   {"28904", "87456", "31416", "00000", "031416", "+28904", "87456.0", "NaN", "1e400"},
	"orders.cid":    {"XYZ123", "ABC000", "DEF345", "GHI999"},
	"orders.value":  {"2400", "200000", "150", "30000", "7", "07", "+150", "150.0", "NaN", "1e400"},
}

// RandomPlan generates a random plan over the paper catalog.
func RandomPlan(rng *rand.Rand) xmas.Op {
	return buildPlan(&planDecoder{rng: rng})
}

// PlanFromSeed decodes a plan from fuzz-seed bytes. Decoding is total:
// exhausted data reads as zero, so every byte string yields a plan.
func PlanFromSeed(data []byte) xmas.Op {
	return buildPlan(&planDecoder{data: data})
}

// CorruptedGroupSeed decodes to a grouped plan whose nested plan collects
// an unbound variable: xmas.Validate accepts it, xmas.Verify must not.
// It is the fuzz corpus's regression seed for the shape that used to panic.
var CorruptedGroupSeed = []byte{3, 0, 0, 0, 0, 0, 15}

// planDecoder drives plan construction from an rng (RandomPlan) or a byte
// string (PlanFromSeed).
type planDecoder struct {
	data []byte
	pos  int
	rng  *rand.Rand
	vn   int // variable counter: all generated variables are distinct
}

// next decodes a choice in [0, n).
func (d *planDecoder) next(n int) int {
	if n <= 1 {
		return 0
	}
	if d.rng != nil {
		return d.rng.Intn(n)
	}
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return int(b) % n
}

func (d *planDecoder) v(prefix string) xmas.Var {
	d.vn++
	return xmas.Var(fmt.Sprintf("$%s%d", prefix, d.vn))
}

func buildPlan(d *planDecoder) xmas.Op {
	switch d.next(5) {
	case 0:
		return d.plainPlan()
	case 1:
		return d.joinPlan(false)
	case 2:
		return d.joinPlan(true)
	case 3:
		return d.groupPlan()
	default:
		return d.catPlan()
	}
}

// genChain is a scan pipeline over one source: mkSrc, the getD binding the
// row elements, zero or more field getDs and optionally a selection.
type genChain struct {
	op     xmas.Op
	elem   xmas.Var
	src    genSource
	fields map[string]xmas.Var
}

func (d *planDecoder) chain() *genChain {
	s := genSources[d.next(len(genSources))]
	doc := d.v("D")
	elem := d.v("E")
	c := &genChain{
		op: &xmas.GetD{
			In:   &xmas.MkSrc{SrcID: s.srcID, Out: doc},
			From: doc, Path: xmas.ParsePath(s.label), Out: elem,
		},
		elem:   elem,
		src:    s,
		fields: map[string]xmas.Var{},
	}
	for i, n := 0, d.next(3); i < n; i++ {
		c.field(d, s.fields[d.next(len(s.fields))])
	}
	if d.next(2) == 1 {
		f := s.fields[d.next(len(s.fields))]
		v := c.field(d, f)
		pool := genConsts[s.label+"."+f]
		c.op = &xmas.Select{
			In:   c.op,
			Cond: xmas.NewVarConstCond(v, xtree.OpEQ, pool[d.next(len(pool))]),
		}
	}
	return c
}

// field binds (or reuses) the getD for field f of the chain's row element.
func (c *genChain) field(d *planDecoder, f string) xmas.Var {
	if v, ok := c.fields[f]; ok {
		return v
	}
	v := d.v("F")
	c.op = &xmas.GetD{
		In:   c.op,
		From: c.elem, Path: xmas.ParsePath(c.src.label + "." + f), Out: v,
	}
	c.fields[f] = v
	return v
}

// collectible lists the chain's bindings a tD may export, in deterministic
// order (field vars follow the source's column order, never map order).
func (c *genChain) collectible() []xmas.Var {
	vs := []xmas.Var{c.elem}
	for _, f := range c.src.fields {
		if v, ok := c.fields[f]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func (d *planDecoder) plainPlan() xmas.Op {
	c := d.chain()
	vs := c.collectible()
	return &xmas.TD{In: c.op, V: vs[d.next(len(vs))]}
}

// joinPlan joins two chains on one field each. With semi set the join is a
// semi-join and only the kept side's bindings remain collectible.
func (d *planDecoder) joinPlan(semi bool) xmas.Op {
	c1, c2 := d.chain(), d.chain()
	k1 := c1.field(d, c1.src.fields[d.next(len(c1.src.fields))])
	k2 := c2.field(d, c2.src.fields[d.next(len(c2.src.fields))])
	cond := xmas.NewVarVarCond(k1, xtree.OpEQ, k2)
	if semi {
		keep := xmas.Side(d.next(2))
		kept := c1
		if keep == xmas.KeepRight {
			kept = c2
		}
		vs := kept.collectible()
		return &xmas.TD{
			In: &xmas.SemiJoin{L: c1.op, R: c2.op, Cond: &cond, Keep: keep},
			V:  vs[d.next(len(vs))],
		}
	}
	vs := append(c1.collectible(), c2.collectible()...)
	return &xmas.TD{
		In: &xmas.Join{L: c1.op, R: c2.op, Cond: &cond},
		V:  vs[d.next(len(vs))],
	}
}

// groupPlan groups a chain on one field and runs a nested plan per
// partition, wrapping each partition's answer in a constructed Group
// element. One decode in sixteen corrupts the nested plan (see
// CorruptedGroupSeed).
func (d *planDecoder) groupPlan() xmas.Op {
	c := d.chain()
	key := c.field(d, c.src.fields[d.next(len(c.src.fields))])
	inSchema := append([]xmas.Var{}, c.op.Schema()...)
	part := d.v("P")
	gb := &xmas.GroupBy{In: c.op, Keys: []xmas.Var{key}, Out: part}

	nsVars := append([]xmas.Var{}, inSchema...)
	collect := nsVars[d.next(len(nsVars))]
	if d.next(16) == 15 {
		// The regression shape: the nested plan collects a variable the
		// partition schema never binds. Internally consistent — Validate
		// accepts it — but the partition tuples have no such column.
		nsVars = append(nsVars, "$UNBOUND")
		collect = "$UNBOUND"
	}
	z := d.v("Z")
	apply := &xmas.Apply{
		In:     gb,
		Plan:   &xmas.TD{In: &xmas.NestedSrc{V: part, Vars: nsVars}, V: collect},
		InpVar: part,
		Out:    z,
	}
	g := d.v("G")
	cr := &xmas.CrElt{
		In: apply, Label: "Group", SkolemFn: "fg",
		GroupVars: []xmas.Var{key},
		Children:  xmas.ChildSpec{V: z}, // the nested answer is already a list
		Out:       g,
	}
	return &xmas.TD{In: cr, V: g}
}

// catPlan joins two chains, wraps each side's row element in a constructed
// element, concatenates the two constructions and navigates back into the
// concatenation — the shape that exercises cat-unfold and the list-valued
// getD path.
func (d *planDecoder) catPlan() xmas.Op {
	c1, c2 := d.chain(), d.chain()
	k1 := c1.field(d, c1.src.fields[d.next(len(c1.src.fields))])
	k2 := c2.field(d, c2.src.fields[d.next(len(c2.src.fields))])
	cond := xmas.NewVarVarCond(k1, xtree.OpEQ, k2)
	join := &xmas.Join{L: c1.op, R: c2.op, Cond: &cond}

	a, b := d.v("A"), d.v("B")
	crA := &xmas.CrElt{
		In: join, Label: "A", SkolemFn: "fa",
		GroupVars: []xmas.Var{c1.elem, c2.elem},
		Children:  xmas.ChildSpec{V: c1.elem, Wrap: true},
		Out:       a,
	}
	crB := &xmas.CrElt{
		In: crA, Label: "B", SkolemFn: "fb",
		GroupVars: []xmas.Var{c1.elem, c2.elem},
		Children:  xmas.ChildSpec{V: c2.elem, Wrap: true},
		Out:       b,
	}
	l := d.v("L")
	cat := &xmas.Cat{
		In:  crB,
		X:   xmas.ChildSpec{V: a, Wrap: true},
		Y:   xmas.ChildSpec{V: b, Wrap: true},
		Out: l,
	}
	lab := "A"
	if d.next(2) == 1 {
		lab = "B"
	}
	r := d.v("R")
	return &xmas.TD{
		In: &xmas.GetD{In: cat, From: l, Path: xmas.ParsePath("list." + lab), Out: r},
		V:  r,
	}
}
