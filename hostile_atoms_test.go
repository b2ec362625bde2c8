package mix_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mix"
	"mix/internal/relstore"
	"mix/internal/shard"
	"mix/internal/source"
	"mix/internal/xtree"
)

// Hostile atoms end to end: values that are equal or ordered only under the
// comparison kernel's rules (07 = 7, -0 = 0, NaN a string, numbers before
// strings) must give one answer whichever join algorithm runs, whether the
// condition is pushed to SQL or evaluated at the mediator, whatever the
// execution knobs, and however a sharded view routes the lookup.

// hostileMediator builds a mediator over:
//   - relational source h: a(id, x STRING) = {07, -0, 7}, b(id, y INT) =
//     {7, 0}, c(k STRING key) = {1a, 10, 2} and d(id, ck STRING) holding
//     one row per c key, all inserted out of kernel order;
//   - XML sources &xv (e/v = NaN, -0, 7, 1a) and &xw (f/w = 5, 0, 7, NaN);
//   - &fleet, a hash:2 view on k over children k = -0, 5, 1a.
func hostileMediator(t *testing.T, cfg mix.Config) (*mix.Mediator, *shard.Doc) {
	t.Helper()
	db := mix.NewDB("h")
	db.MustCreate(relstore.Schema{Relation: "a", Key: []int{0}, Columns: []relstore.Column{
		{Name: "id", Type: relstore.TInt}, {Name: "x", Type: relstore.TString}}})
	db.MustCreate(relstore.Schema{Relation: "b", Key: []int{0}, Columns: []relstore.Column{
		{Name: "id", Type: relstore.TInt}, {Name: "y", Type: relstore.TInt}}})
	db.MustCreate(relstore.Schema{Relation: "c", Key: []int{0}, Columns: []relstore.Column{
		{Name: "k", Type: relstore.TString}}})
	db.MustCreate(relstore.Schema{Relation: "d", Key: []int{0}, Columns: []relstore.Column{
		{Name: "id", Type: relstore.TInt}, {Name: "ck", Type: relstore.TString}}})
	for i, x := range []string{"07", "-0", "7"} {
		db.MustInsert("a", mix.Int(int64(i+1)), mix.Str(x))
	}
	for i, y := range []int64{7, 0} {
		db.MustInsert("b", mix.Int(int64(i+1)), mix.Int(y))
	}
	for i, k := range []string{"1a", "10", "2"} {
		db.MustInsert("c", mix.Str(k))
		db.MustInsert("d", mix.Int(int64(i+1)), mix.Str(k))
	}
	med := mix.NewWith(cfg)
	med.AddRelationalSource(db)
	for id, xml := range map[string]string{
		"&xv": "<vs><e><v>NaN</v></e><e><v>-0</v></e><e><v>7</v></e><e><v>1a</v></e></vs>",
		"&xw": "<ws><f><w>5</w></f><f><w>0</w></f><f><w>7</w></f><f><w>NaN</w></f></ws>",
	} {
		if err := med.AddXMLSource(id, xml); err != nil {
			t.Fatal(err)
		}
	}
	spec := shard.Spec{Mode: shard.ModeHash, N: 2, KeyPath: []string{"r", "k"}}
	parts := make([][]*xtree.Node, spec.N)
	for i, k := range []string{"-0", "5", "1a"} {
		r := xtree.NewElem(xtree.ID(fmt.Sprintf("&r%d", i)), "r",
			xtree.NewElem(xtree.ID(fmt.Sprintf("&r%d.k", i)), "k", xtree.Text(k)))
		s := spec.ShardOf(k)
		parts[s] = append(parts[s], r)
	}
	var members []shard.Member
	for i, kids := range parts {
		id := fmt.Sprintf("shard%d", i)
		members = append(members, shard.Member{ID: id, Doc: &partDoc{id: "&" + id, kids: kids}})
	}
	fleet, err := med.AddShardedSource("&fleet", spec, members, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return med, fleet
}

// partDoc serves one shard's fixed child list.
type partDoc struct {
	id   string
	kids []*xtree.Node
}

func (d *partDoc) RootID() string { return d.id }

func (d *partDoc) Open() (source.ElemCursor, error) { return &partCursor{kids: d.kids}, nil }

type partCursor struct{ kids []*xtree.Node }

func (c *partCursor) Next() (*xtree.Node, bool, error) {
	if len(c.kids) == 0 {
		return nil, false, nil
	}
	n := c.kids[0]
	c.kids = c.kids[1:]
	return n, true, nil
}

func (c *partCursor) Close() {}

// hostileQueries pairs each evidence query with the answer it must give:
// per answer child, the atoms of its leaves elements joined by "=". Answers
// marked sorted are compared as multisets.
var hostileQueries = []struct {
	name   string
	query  string
	leaves []string
	labels []string
	sorted bool
}{
	{
		name: "in-source-join",
		query: `
FOR $A IN document(&h.a)/a
    $B IN document(&h.b)/b
WHERE $A/x/data() = $B/y/data()
RETURN <P> $A $B </P> {$A, $B}`,
		leaves: []string{"x", "y"},
		labels: []string{"-0=0", "07=7", "7=7"},
		sorted: true,
	},
	{
		name: "hash-join",
		query: `
FOR $E IN document(&xv)/e
    $F IN document(&xw)/f
WHERE $E/v/data() = $F/w/data()
RETURN <P> $E $F </P> {$E, $F}`,
		leaves: []string{"v", "w"},
		labels: []string{"-0=0", "7=7", "NaN=NaN"},
		sorted: true,
	},
	{
		name: "nl-join",
		query: `
FOR $E IN document(&xv)/e
    $F IN document(&xw)/f
WHERE $E/v/data() <= $F/w/data() AND $E/v/data() >= $F/w/data()
RETURN <P> $E $F </P> {$E, $F}`,
		leaves: []string{"v", "w"},
		labels: []string{"-0=0", "7=7", "NaN=NaN"},
		sorted: true,
	},
	{
		name:   "select-string-column",
		query:  `FOR $A IN document(&h.a)/a WHERE $A/x = 7 RETURN $A`,
		leaves: []string{"x"},
		labels: []string{"07", "7"},
		sorted: true,
	},
	{
		// Pushed as SQL ORDER BY c1.k for the presorted group-by; without
		// pushdown the scan of c is sorted on its key instead.
		name: "order-by-key",
		query: `
FOR $C IN document(&h.c)/c
    $D IN document(&h.d)/d
WHERE $C/k/data() = $D/ck/data()
RETURN <R> $C <S> $D </S> {$D} </R> {$C}`,
		leaves: []string{"k"},
		labels: []string{"2", "10", "1a"},
	},
	{
		name:   "shard-lookup",
		query:  `FOR $R IN document(&fleet)/r WHERE $R/k = 0 RETURN $R`,
		leaves: []string{"k"},
		labels: []string{"-0"},
	},
}

func TestHostileAtomsEndToEnd(t *testing.T) {
	for _, cfg := range []struct {
		name string
		cfg  mix.Config
		warm bool
	}{
		{"default", mix.Config{}, false},
		{"window-1", mix.Config{BatchExec: 1}, false},
		{"parallel", mix.Config{Parallelism: 2}, false},
		{"no-pushdown", mix.Config{DisablePushdown: true}, false},
		{"cost-opt", mix.Config{CostOpt: true}, false},
		{"source-cache-warm", mix.Config{SourceCache: 64, CostOpt: true}, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			med, fleet := hostileMediator(t, cfg.cfg)
			if cfg.warm {
				// Full scans fill the result cache, so under CostOpt the
				// single-table lookup is answered from a cached scan.
				for _, rel := range []string{"&h.a", "&h.b", "&h.c", "&h.d"} {
					warmScan(t, med, rel)
				}
			}
			for _, hq := range hostileQueries {
				med.ResetStats()
				got := hostileAnswer(t, med, hq.query, hq.leaves)
				if cfg.warm && hq.name == "select-string-column" && med.Stats().TuplesShipped != 0 {
					t.Errorf("%s: not answered from the cached scan", hq.name)
				}
				if hq.sorted {
					sort.Strings(got)
				}
				if !reflect.DeepEqual(got, hq.labels) {
					t.Errorf("%s: got %q, want %q", hq.name, got, hq.labels)
				}
			}
			if st := fleet.Stats(); st.Pruned == 0 {
				t.Errorf("the shard lookup was not routed: %+v", st)
			}
		})
	}
}

// hostileAnswer runs query and renders each answer child as its leaves'
// atoms joined by "=".
func hostileAnswer(t *testing.T, med *mix.Mediator, query string, leaves []string) []string {
	t.Helper()
	doc, err := med.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range m.Children {
		s := ""
		for i, l := range leaves {
			n := c.Find(l)
			if n == nil || len(n.Children) != 1 {
				t.Fatalf("answer child lacks %s: %s", l, c)
			}
			if i > 0 {
				s += "="
			}
			s += n.Children[0].Label
		}
		out = append(out, s)
	}
	return out
}

// warmScan drains the unconstrained scan of a relational source document.
func warmScan(t *testing.T, med *mix.Mediator, id string) {
	t.Helper()
	d, err := med.Catalog().Resolve(id)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := d.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
	}
}
