package engine

import (
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// evalCond evaluates a select/join condition on a tuple. Conditions compare
// atomic values (paper Section 3, operator 3); the id-selection form
// $v = &oid produced by decontextualization compares object ids instead.
// An operand without an atomic value (a list, a set, or a multi-child
// element) fails the condition, mirroring SQL's null semantics.
func evalCond(c xmas.Cond, t Tuple) bool {
	if c.IsIDSelection() {
		id, ok := idOf(t.MustGet(c.Left.V))
		return ok && id == c.Right.Const
	}
	// Symmetric case: &oid = $v.
	if c.Op == xtree.OpEQ && c.Left.IsConst && len(c.Left.Const) > 0 && c.Left.Const[0] == '&' && !c.Right.IsConst {
		id, ok := idOf(t.MustGet(c.Right.V))
		return ok && id == c.Left.Const
	}
	left, ok := operandAtom(c.Left, t)
	if !ok {
		return false
	}
	right, ok := operandAtom(c.Right, t)
	if !ok {
		return false
	}
	return c.Op.Holds(left.Compare(right))
}

// operandAtom resolves an operand to its parsed comparable value: a
// constant, or the cmpAtomOf of the bound value.
func operandAtom(o xmas.Operand, t Tuple) (xtree.Atom, bool) {
	if o.IsConst {
		return xtree.ParseAtom(o.Const), true
	}
	v, ok := t.Get(o.V)
	if !ok {
		return xtree.Atom{}, false
	}
	return cmpAtomOf(v)
}

// cmpAtomOf parses the comparable value of v: its atom, or — for elements
// without an atomic value, such as whole tuple objects — its object id.
// Comparing tuple variables by id is how the semi-joins that rule 9
// introduces correlate group keys ($C' = $C).
func cmpAtomOf(v Value) (xtree.Atom, bool) {
	if a, ok := atomOf(v); ok {
		return xtree.ParseAtom(a), true
	}
	if id, ok := idOf(v); ok && id != "" {
		return xtree.ParseAtom(id), true
	}
	return xtree.Atom{}, false
}

// hashKeyOf is v's hash-join key: values evalCond finds equal share it.
func hashKeyOf(v Value) (string, bool) {
	a, ok := cmpAtomOf(v)
	return a.Key(), ok
}
