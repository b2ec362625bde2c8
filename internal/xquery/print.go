package xquery

import (
	"strings"

	"mix/internal/xtree"
)

// String renders the query back to concrete syntax. The output reparses to
// an equal AST (property-tested), which lets the mediator log and replay the
// decontextualized queries it builds.
func (q *Query) String() string {
	var b strings.Builder
	q.write(&b, 0)
	return b.String()
}

func (q *Query) write(b *strings.Builder, depth int) {
	pad := strings.Repeat("  ", depth)
	b.WriteString(pad)
	b.WriteString("FOR ")
	for i, f := range q.For {
		if i > 0 {
			b.WriteString("\n" + pad + "    ")
		}
		b.WriteString(f.Var)
		b.WriteString(" IN ")
		if f.Source != "" {
			b.WriteString("document(")
			b.WriteString(f.Source)
			b.WriteString(")")
		} else {
			b.WriteString(f.FromVar)
		}
		for _, step := range f.Path {
			b.WriteByte('/')
			b.WriteString(renderStep(step))
		}
	}
	if len(q.Where) > 0 {
		b.WriteString("\n" + pad + "WHERE ")
		for i, c := range q.Where {
			if i > 0 {
				b.WriteString("\n" + pad + "  AND ")
			}
			writeOperand(b, c.Left)
			b.WriteByte(' ')
			b.WriteString(c.Op.String())
			b.WriteByte(' ')
			writeOperand(b, c.Right)
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString("\n" + pad + "ORDER BY ")
		b.WriteString(strings.Join(q.OrderBy, ", "))
	}
	b.WriteString("\n" + pad + "RETURN\n")
	writeContent(b, q.Return, depth+1)
}

func writeOperand(b *strings.Builder, o Operand) {
	if o.IsConst {
		if strings.HasPrefix(o.Const, "&") {
			b.WriteString(o.Const)
			return
		}
		if xtree.IsPlainNumeral(o.Const) {
			b.WriteString(o.Const)
			return
		}
		b.WriteByte('"')
		b.WriteString(o.Const)
		b.WriteByte('"')
		return
	}
	b.WriteString(o.Var)
	for _, step := range o.Path {
		b.WriteByte('/')
		b.WriteString(renderStep(step))
	}
	if o.Data {
		b.WriteString("/data()")
	}
}

func writeContent(b *strings.Builder, c Content, depth int) {
	pad := strings.Repeat("  ", depth)
	switch x := c.(type) {
	case *VarRef:
		b.WriteString(pad)
		b.WriteString(x.Var)
		b.WriteByte('\n')
	case *ElemCtor:
		b.WriteString(pad)
		b.WriteByte('<')
		b.WriteString(x.Label)
		b.WriteString(">\n")
		for _, k := range x.Children {
			writeContent(b, k, depth+1)
		}
		b.WriteString(pad)
		b.WriteString("</")
		b.WriteString(x.Label)
		b.WriteByte('>')
		if len(x.GroupBy) > 0 {
			b.WriteString(" {")
			b.WriteString(strings.Join(x.GroupBy, ", "))
			b.WriteByte('}')
		}
		b.WriteByte('\n')
	case *Query:
		x.write(b, depth)
		b.WriteByte('\n')
	}
}

func renderStep(step string) string {
	if step == Wildcard {
		return "*"
	}
	return step
}
