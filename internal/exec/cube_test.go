package exec

// Randomized parity for the data-cube subsystem: cube-backed pipelines
// (dCube replacing dAggregate-over-dJoin) are driven with random fact
// inserts/deletes, selection churn with duplicate bins, contiguous brush
// ranges (the prefix-sum path), NULL join keys, and NULL aggregate
// arguments — and after every event the maintained output must equal a full
// recomputation (RunPrepared, the stateless arm of the same plan). Values
// are integers so both paths are bit-exact: float addition order differs
// between per-bin tiles and row-order recomputation, but integer sums below
// 2^53 are exact either way.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// cubeCatalog holds a fact relation (binned, grouped, valued) and a small
// selection relation the brush churns.
func cubeCatalog() (memCatalog, *relation.Relation, *relation.Relation) {
	fact := relation.New("Fact", relation.NewSchema(
		relation.Col("bin", relation.KindInt),
		relation.Col("grp", relation.KindString),
		relation.Col("val", relation.KindInt),
	))
	sel := relation.New("Sel", relation.NewSchema(
		relation.Col("bin", relation.KindInt),
	))
	return memCatalog{"fact": fact, "sel": sel}, fact, sel
}

var cubeGrps = []string{"a", "b", "c"}

const cubeBins = 12

// randFactRow draws from tight domains so bin and group collisions are
// constant; NULL bins (which never join) and NULL values (which aggregates
// skip) appear regularly.
func randFactRow(rng *rand.Rand) relation.Tuple {
	bin := relation.Int(int64(rng.Intn(cubeBins)))
	if rng.Intn(16) == 0 {
		bin = relation.Null()
	}
	val := relation.Int(int64(rng.Intn(10)))
	if rng.Intn(16) == 0 {
		val = relation.Null()
	}
	return relation.Tuple{bin, relation.String(cubeGrps[rng.Intn(len(cubeGrps))]), val}
}

func prepareCube(t *testing.T, cat memCatalog, sql string, wantCube bool) *Prepared {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	n, err := plan.Build(q, cat)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	funcs := expr.NewRegistry()
	n = plan.Optimize(n, funcs)
	p, err := Prepare(n, funcs)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	if !p.DeltaSafe() {
		t.Fatalf("%q should be delta-safe, reason: %s", sql, p.DeltaReason())
	}
	if p.HasCube() != wantCube {
		t.Fatalf("%q: HasCube = %t, want %t", sql, p.HasCube(), wantCube)
	}
	return p
}

func TestCubeDeltaParityWithRecompute(t *testing.T) {
	programs := []struct {
		name string
		sql  string
	}{
		{"grouped-count-sum-avg", "SELECT f.grp AS grp, count(*) AS n, sum(f.val) AS total, avg(f.val) AS mean FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"},
		{"global-no-groupby", "SELECT count(*) AS n, sum(f.val) AS total FROM Fact AS f, Sel AS s WHERE f.bin = s.bin"},
		{"fact-on-right", "SELECT f.grp AS grp, sum(f.val) AS total FROM Sel AS s, Fact AS f WHERE s.bin = f.bin GROUP BY f.grp"},
		{"having", "SELECT f.grp AS grp, count(*) AS n FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp HAVING count(*) > 2"},
		{"expr-arg", "SELECT f.grp AS grp, sum(f.val * 2) AS twice, count(f.val) AS nonnull FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"},
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			cat, fact, sel := cubeCatalog()
			rng := rand.New(rand.NewSource(71))
			for i := 0; i < 40; i++ {
				fact.MustAppend(randFactRow(rng))
			}
			sel.MustAppend(relation.Tuple{relation.Int(3)})
			sel.MustAppend(relation.Tuple{relation.Int(4)})

			live := prepareCube(t, cat, pr.sql, true)
			oracle := prepareCube(t, cat, pr.sql, true) // stateless arm of the same plan
			ex := New(cat)

			res, err := ex.RunStateful(live)
			if err != nil {
				t.Fatal(err)
			}
			mat := relation.New("out", res.Rel.Schema)
			mat.Rows = append([]relation.Tuple(nil), res.Rel.Rows...)

			check := func(step string) {
				t.Helper()
				want, err := ex.RunPrepared(oracle)
				if err != nil {
					t.Fatalf("%s: oracle: %v", step, err)
				}
				if !relation.Equal(mat, want.Rel) {
					t.Fatalf("%s: cube output diverges from recompute\ngot:    %v\noracle: %v", step, mat.Rows, want.Rel.Rows)
				}
			}
			check("after priming")

			apply := func(step string, df, ds relation.Delta) {
				t.Helper()
				if err := fact.ApplyDelta(df); err != nil {
					t.Fatalf("%s: fact apply: %v", step, err)
				}
				if err := sel.ApplyDelta(ds); err != nil {
					t.Fatalf("%s: sel apply: %v", step, err)
				}
				od, err := ex.ApplyDelta(live, map[string]relation.Delta{"fact": df, "sel": ds})
				if err != nil {
					t.Fatalf("%s: pipeline: %v", step, err)
				}
				if err := mat.ApplyDelta(od); err != nil {
					t.Fatalf("%s: output delta does not apply: %v", step, err)
				}
				check(step)
			}

			selBins := func() []relation.Tuple {
				return append([]relation.Tuple(nil), sel.Rows...)
			}

			for ev := 0; ev < 200; ev++ {
				step := fmt.Sprintf("event %d", ev)
				switch op := rng.Intn(12); {
				case op < 3: // fact insert
					apply(step, relation.Delta{Ins: []relation.Tuple{randFactRow(rng)}}, relation.Delta{})
				case op < 5 && len(fact.Rows) > 0: // fact delete
					row := fact.Rows[rng.Intn(len(fact.Rows))]
					apply(step, relation.Delta{Del: []relation.Tuple{row}}, relation.Delta{})
				case op < 7: // selection insert — duplicates allowed (multiplicity > 1)
					apply(step, relation.Delta{}, relation.Delta{Ins: []relation.Tuple{{relation.Int(int64(rng.Intn(cubeBins)))}}})
				case op < 8 && len(sel.Rows) > 0: // selection delete
					row := sel.Rows[rng.Intn(len(sel.Rows))]
					apply(step, relation.Delta{}, relation.Delta{Del: []relation.Tuple{row}})
				case op < 10: // brush move: replace the selection with a contiguous range
					lo := rng.Intn(cubeBins)
					hi := lo + rng.Intn(cubeBins-lo)
					var ins []relation.Tuple
					for b := lo; b <= hi; b++ {
						ins = append(ins, relation.Tuple{relation.Int(int64(b))})
					}
					apply(step+" (brush)", relation.Delta{}, relation.Delta{Del: selBins(), Ins: ins})
				default: // mixed batch: fact and selection change in one delta
					var df relation.Delta
					for j := 0; j < 3; j++ {
						df.Ins = append(df.Ins, randFactRow(rng))
					}
					if len(fact.Rows) > 1 {
						df.Del = append(df.Del, fact.Rows[0], fact.Rows[len(fact.Rows)-1])
					}
					ds := relation.Delta{Ins: []relation.Tuple{{relation.Int(int64(rng.Intn(cubeBins)))}}}
					apply(step+" (mixed)", df, ds)
				}
			}

			// Drain the selection, then the fact side, to empty.
			apply("drain selection", relation.Delta{}, relation.Delta{Del: selBins()})
			for len(fact.Rows) > 0 {
				row := fact.Rows[len(fact.Rows)-1]
				apply("drain fact", relation.Delta{Del: []relation.Tuple{row}}, relation.Delta{})
			}

			st := live.TakeCubeStats()
			if st.Builds == 0 || st.Hits == 0 {
				t.Fatalf("cube stats not accumulated: %+v", st)
			}

			if again := live.TakeCubeStats(); again != (CubeStats{}) {
				t.Fatalf("TakeCubeStats did not drain: %+v", again)
			}

			// Prime again, now over nothing on both sides (the global
			// aggregate still owes its one row), then let the first fact row
			// and the first selection row arrive in one batch.
			if res, err = ex.RunStateful(live); err != nil {
				t.Fatal(err)
			}
			mat.Rows = append([]relation.Tuple(nil), res.Rel.Rows...)
			check("re-primed over empty input")
			if st := live.TakeCubeStats(); st.Hits != 0 || st.BinsAnswered != 0 {
				t.Fatalf("priming counted as a cube hit: %+v", st)
			}
			first := relation.Tuple{relation.Int(5), relation.String("a"), relation.Int(7)}
			apply("first rows", relation.Delta{Ins: []relation.Tuple{first}}, relation.Delta{Ins: []relation.Tuple{{relation.Int(5)}}})
		})
	}
}

// TestCubePrefixPath pins the two answer paths: a contiguous multiplicity-1
// selection goes through the prefix-sum arrays; duplicate bins (multiplicity
// 2) or a gap force the per-bin scan. Both must agree with recomputation —
// the randomized wall covers that — so here we assert which path is active.
func TestCubePrefixPath(t *testing.T) {
	cat, fact, sel := cubeCatalog()
	for b := 0; b < 8; b++ {
		fact.MustAppend(relation.Tuple{relation.Int(int64(b)), relation.String(cubeGrps[b%3]), relation.Int(int64(b * 10))})
	}
	sql := "SELECT f.grp AS grp, sum(f.val) AS total FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"
	live := prepareCube(t, cat, sql, true)
	ex := New(cat)
	if _, err := ex.RunStateful(live); err != nil {
		t.Fatal(err)
	}
	dc := live.cubes[0]

	brush := func(bins ...int64) {
		t.Helper()
		var d relation.Delta
		d.Del = append(d.Del, sel.Rows...)
		for _, b := range bins {
			d.Ins = append(d.Ins, relation.Tuple{relation.Int(b)})
		}
		if err := sel.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.ApplyDelta(live, map[string]relation.Delta{"sel": d}); err != nil {
			t.Fatal(err)
		}
	}

	brush(2, 3, 4)
	tiles := dc.curTiles()
	if !tiles.prefixBuilt {
		t.Fatal("first brush did not build the prefix arrays")
	}
	if ok, lo, hi := dc.selRange(tiles); !ok || hi-lo != 2 {
		t.Fatalf("contiguous brush not answered by range: ok=%t lo=%d hi=%d", ok, lo, hi)
	}

	brush(2, 3, 3) // duplicate bin: multiplicity 2
	if ok, _, _ := dc.selRange(tiles); ok {
		t.Fatal("duplicate-bin selection must not take the prefix path")
	}

	brush(1, 5) // gap
	if ok, _, _ := dc.selRange(tiles); ok {
		t.Fatal("gapped selection must not take the prefix path")
	}

	// A fact change dirties the prefix; the next selection change rebuilds.
	df := relation.Delta{Ins: []relation.Tuple{{relation.Int(6), relation.String("a"), relation.Int(5)}}}
	if err := fact.ApplyDelta(df); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ApplyDelta(live, map[string]relation.Delta{"fact": df}); err != nil {
		t.Fatal(err)
	}
	if !tiles.prefixDirty {
		t.Fatal("fact delta should dirty the prefix arrays")
	}
	brush(5, 6)
	if ok, _, _ := dc.selRange(dc.curTiles()); !ok {
		t.Fatal("brush after fact change should rebuild the prefix and use it")
	}

	if live.CubeBytes() == 0 || dc.tileBytes() == 0 {
		t.Fatal("tile memory accounting reports zero for live tiles")
	}
}

// TestCubeIneligibleFallbacks pins the shapes that must NOT take the cube
// path — they stay on the ordinary delta pipeline and still answer exactly.
func TestCubeIneligibleFallbacks(t *testing.T) {
	programs := []struct {
		name string
		sql  string
	}{
		{"min", "SELECT f.grp AS grp, min(f.val) AS m FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"},
		{"max", "SELECT f.grp AS grp, max(f.val) AS m FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"},
		{"count-distinct", "SELECT f.grp AS grp, count(DISTINCT f.val) AS m FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"},
		{"residual-predicate", "SELECT f.grp AS grp, count(*) AS n FROM Fact AS f, Sel AS s WHERE f.bin = s.bin AND f.val > s.bin GROUP BY f.grp"},
		{"groups-read-both-sides", "SELECT f.grp AS grp, s.bin AS b, count(*) AS n FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp, s.bin"},
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			cat, fact, sel := cubeCatalog()
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 30; i++ {
				fact.MustAppend(randFactRow(rng))
			}
			for b := 2; b <= 6; b++ {
				sel.MustAppend(relation.Tuple{relation.Int(int64(b))})
			}
			live := prepareCube(t, cat, pr.sql, false) // fallback: no cube
			ex := New(cat)
			res, err := ex.RunStateful(live)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ex.RunPrepared(prepareCube(t, cat, pr.sql, false))
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(res.Rel, want.Rel) {
				t.Fatalf("fallback pipeline diverges from recompute\ngot:    %v\noracle: %v", res.Rel.Rows, want.Rel.Rows)
			}
			if st := live.TakeCubeStats(); st != (CubeStats{}) {
				t.Fatalf("fallback pipeline accumulated cube stats: %+v", st)
			}
		})
	}
}

// TestCubeSharedTiles exercises the multi-client path: two sessions over the
// same shared fact relation (but private selections) attach to one tile
// build; the writer advances the tiles once per base batch; sessions brush
// independently; release + sweep evicts.
func TestCubeSharedTiles(t *testing.T) {
	fact := relation.New("Fact", relation.NewSchema(
		relation.Col("bin", relation.KindInt),
		relation.Col("grp", relation.KindString),
		relation.Col("val", relation.KindInt),
	))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		fact.MustAppend(randFactRow(rng))
	}
	newSel := func() *relation.Relation {
		return relation.New("Sel", relation.NewSchema(relation.Col("bin", relation.KindInt)))
	}
	selA, selB := newSel(), newSel()
	for b := 1; b <= 4; b++ {
		selA.MustAppend(relation.Tuple{relation.Int(int64(b))})
	}
	selB.MustAppend(relation.Tuple{relation.Int(7)})
	catA := memCatalog{"fact": fact, "sel": selA}
	catB := memCatalog{"fact": fact, "sel": selB}
	g := NewShareGroup(func(name string) bool { return name == "fact" })

	sql := "SELECT f.grp AS grp, count(*) AS n, sum(f.val) AS total FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"
	prepShared := func(cat memCatalog) *Prepared {
		t.Helper()
		q, err := parser.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		n, err := plan.Build(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		funcs := expr.NewRegistry()
		n = plan.Optimize(n, funcs)
		p, err := PrepareShared(n, funcs, g)
		if err != nil {
			t.Fatal(err)
		}
		if !p.HasCube() || !p.SharesState() {
			t.Fatalf("shared pipeline: HasCube=%t SharesState=%t", p.HasCube(), p.SharesState())
		}
		return p
	}
	pA, pB := prepShared(catA), prepShared(catB)
	exA, exB := New(catA), New(catB)
	oracleA, oracleB := prepareCube(t, catA, sql, true), prepareCube(t, catB, sql, true)

	run := func(ex *Executor, p *Prepared) *relation.Relation {
		t.Helper()
		res, err := ex.RunStateful(p)
		if err != nil {
			t.Fatal(err)
		}
		out := relation.New("out", res.Rel.Schema)
		out.Rows = append([]relation.Tuple(nil), res.Rel.Rows...)
		return out
	}
	matA, matB := run(exA, pA), run(exB, pB)

	if st := g.Stats(); st.Builds != 1 || st.Reuses != 1 {
		t.Fatalf("tile sharing: Builds=%d Reuses=%d, want one build + one reuse", st.Builds, st.Reuses)
	}
	if g.Sides() != 1 {
		t.Fatalf("Sides() = %d, want 1 shared cube entry", g.Sides())
	}
	if g.SharedRows() == 0 || g.ApproxBytes() == 0 {
		t.Fatalf("shared accounting empty: rows=%d bytes=%d", g.SharedRows(), g.ApproxBytes())
	}
	if pA.CubeBytes() != 0 {
		t.Fatalf("shared tiles must not count as private memory, got %d bytes", pA.CubeBytes())
	}

	check := func(step string, ex *Executor, oracle *Prepared, mat *relation.Relation) {
		t.Helper()
		want, err := ex.RunPrepared(oracle)
		if err != nil {
			t.Fatalf("%s: oracle: %v", step, err)
		}
		if !relation.Equal(mat, want.Rel) {
			t.Fatalf("%s: diverges from recompute\ngot:    %v\noracle: %v", step, mat.Rows, want.Rel.Rows)
		}
	}
	check("prime A", exA, oracleA, matA)
	check("prime B", exB, oracleB, matB)

	// Writer advance: base-data batch applied to the shared tiles once, then
	// fanned out to both sessions.
	for round := 0; round < 5; round++ {
		var df relation.Delta
		for j := 0; j < 4; j++ {
			df.Ins = append(df.Ins, randFactRow(rng))
		}
		if len(fact.Rows) > 2 {
			df.Del = append(df.Del, fact.Rows[0], fact.Rows[len(fact.Rows)/2])
		}
		if err := fact.ApplyDelta(df); err != nil {
			t.Fatal(err)
		}
		wex := New(memCatalog{"fact": fact})
		if err := g.Advance(wex, map[string]relation.Delta{"fact": df}, nil); err != nil {
			t.Fatalf("advance: %v", err)
		}
		for _, s := range []struct {
			ex    *Executor
			p, o  *Prepared
			mat   *relation.Relation
			label string
		}{{exA, pA, oracleA, matA, "A"}, {exB, pB, oracleB, matB, "B"}} {
			if round == 2 && s.label == "B" {
				// Lose the state inside the fan-out window and re-prime: the
				// shared tiles already hold the batch, so the totals must
				// come out of the tiles, not tiles plus the cached delta.
				s.p.ResetState()
				*s.mat = *run(s.ex, s.p)
				check("re-prime inside the advance window", s.ex, s.o, s.mat)
				continue
			}
			od, err := s.ex.ApplyDelta(s.p, map[string]relation.Delta{"fact": df})
			if err != nil {
				t.Fatalf("session %s fan-out: %v", s.label, err)
			}
			if err := s.mat.ApplyDelta(od); err != nil {
				t.Fatalf("session %s output delta: %v", s.label, err)
			}
			check(fmt.Sprintf("advance %d session %s", round, s.label), s.ex, s.o, s.mat)
		}
		g.EndAdvance()
	}

	// Private brushes: each session churns its own selection; the shared
	// tiles are only read.
	for ev := 0; ev < 30; ev++ {
		brush := func(sel *relation.Relation, ex *Executor, p, o *Prepared, mat *relation.Relation, label string) {
			t.Helper()
			lo := rng.Intn(cubeBins)
			hi := lo + rng.Intn(cubeBins-lo)
			var d relation.Delta
			d.Del = append(d.Del, sel.Rows...)
			for b := lo; b <= hi; b++ {
				d.Ins = append(d.Ins, relation.Tuple{relation.Int(int64(b))})
			}
			if err := sel.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			od, err := ex.ApplyDelta(p, map[string]relation.Delta{"sel": d})
			if err != nil {
				t.Fatalf("session %s brush: %v", label, err)
			}
			if err := mat.ApplyDelta(od); err != nil {
				t.Fatalf("session %s output delta: %v", label, err)
			}
			check(fmt.Sprintf("brush %d session %s", ev, label), ex, o, mat)
		}
		brush(selA, exA, pA, oracleA, matA, "A")
		brush(selB, exB, pB, oracleB, matB, "B")
	}
	if st := pA.TakeCubeStats(); st.Hits == 0 {
		t.Fatalf("session A brushed %d times but recorded no cube hits", 30)
	}

	// Unknown base change: the writer rebuilds the tiles wholesale and
	// sessions re-prime (the server hands them a forced recompute).
	fact.Rows = fact.Rows[:len(fact.Rows)-3]
	wex := New(memCatalog{"fact": fact})
	if err := g.Advance(wex, nil, map[string]bool{"fact": true}); err != nil {
		t.Fatalf("rebuild advance: %v", err)
	}
	g.EndAdvance()
	if st := g.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}
	matA, matB = run(exA, pA), run(exB, pB)
	check("after rebuild A", exA, oracleA, matA)
	check("after rebuild B", exB, oracleB, matB)

	// Detach both sessions; the tile store is swept away.
	pA.ReleaseShared()
	pB.ReleaseShared()
	if n := g.Sweep(); n != 1 {
		t.Fatalf("Sweep() = %d, want 1 evicted cube entry", n)
	}
	if g.Sides() != 0 {
		t.Fatalf("Sides() = %d after sweep, want 0", g.Sides())
	}
}

// --- the fold parity wall ---

// wallCatalog holds a fact relation wide enough for multi-column and
// expression keys, and the selection relation its charts join.
func wallCatalog() (memCatalog, *relation.Relation) {
	fact := relation.New("Fact", relation.NewSchema(
		relation.Col("bin", relation.KindFloat),
		relation.Col("b2", relation.KindInt),
		relation.Col("grp", relation.KindString),
		relation.Col("g2", relation.KindFloat),
		relation.Col("val", relation.KindFloat),
	))
	sel := relation.New("Sel", relation.NewSchema(
		relation.Col("bin", relation.KindFloat),
		relation.Col("b2", relation.KindInt),
	))
	return memCatalog{"fact": fact, "sel": sel}, fact
}

// wallFactRow draws keys that must collide across representations (Int(3)
// and Float(3.0) are one bin and one group), NULL bins (which never join),
// NULL group keys (which form a group), NULL arguments (which aggregates
// skip), and quarter-valued floats, whose sums are exact in any order.
func wallFactRow(rng *rand.Rand) relation.Tuple {
	num := func(n, nullOneIn int) relation.Value {
		switch k := rng.Intn(n); rng.Intn(nullOneIn) {
		case 0:
			return relation.Null()
		case 1, 2:
			return relation.Float(float64(k))
		case 3:
			return relation.Float(float64(k) + 0.5)
		default:
			return relation.Int(int64(k))
		}
	}
	grp := relation.String(cubeGrps[rng.Intn(len(cubeGrps))])
	if rng.Intn(12) == 0 {
		grp = relation.Null()
	}
	val := relation.Int(int64(rng.Intn(1000)))
	switch rng.Intn(10) {
	case 0:
		val = relation.Null()
	case 1:
		val = relation.Float(float64(rng.Intn(4000)) / 4)
	}
	return relation.Tuple{num(6, 12), num(3, 16), grp, num(4, 14), val}
}

// refTiles is the row-at-a-time tile fold this PR replaced, kept as the
// wall's oracle: string-keyed bin and group registries, one map cell per
// (group, bin), every key and argument evaluated through the compiled
// closures (never by column index).
type refTiles struct {
	bins, groups       map[string]int
	binKeys, groupKeys []relation.Tuple
	cells              map[[2]int]*refCell
}

type refCell struct {
	rows  int64
	parts []cubePart
}

func newRefTiles(cs *cubeShape) *refTiles {
	r := &refTiles{bins: map[string]int{}, groups: map[string]int{}, cells: map[[2]int]*refCell{}}
	if len(cs.prog.groupBy) == 0 {
		r.groups[""], r.groupKeys = 0, []relation.Tuple{nil}
	}
	return r
}

func (r *refTiles) apply(t *testing.T, cs *cubeShape, row relation.Tuple, sign int) {
	t.Helper()
	env := &expr.Env{Row: row}
	binKey := make(relation.Tuple, len(cs.factKeys))
	null, err := evalKeys(cs.factKeys, cs.factKRaw, binKey, env)
	if err != nil {
		t.Fatal(err)
	}
	if null {
		return
	}
	bin, ok := r.bins[binKey.Key()]
	if !ok {
		bin = len(r.binKeys)
		r.bins[binKey.Key()], r.binKeys = bin, append(r.binKeys, binKey)
	}
	env.Row = cs.pad(make(relation.Tuple, cs.width), row)
	grpKey := make(relation.Tuple, len(cs.prog.groupBy))
	for i, g := range cs.prog.groupBy {
		if grpKey[i], err = g(env); err != nil {
			t.Fatal(err)
		}
	}
	grp, ok := r.groups[grpKey.Key()]
	if !ok {
		grp = len(r.groupKeys)
		r.groups[grpKey.Key()], r.groupKeys = grp, append(r.groupKeys, grpKey)
	}
	c := r.cells[[2]int{grp, bin}]
	if c == nil {
		c = &refCell{parts: make([]cubePart, len(cs.prog.specs))}
		r.cells[[2]int{grp, bin}] = c
	}
	c.rows += int64(sign)
	for si := range cs.prog.specs {
		if sp := &cs.prog.specs[si]; sp.arg != nil {
			v, err := sp.arg(env)
			if err != nil {
				t.Fatal(err)
			}
			c.parts[si].accumulate(v, int64(sign))
		}
	}
}

// diff describes the first difference between folded tiles and the
// reference: bin ids, group ids, cells, then prefix arrays. Empty = equal.
func (r *refTiles) diff(tl *cubeTiles) string {
	dict := func(what string, want []relation.Tuple, got keyDict) string {
		if len(want) != len(got.keys) {
			return fmt.Sprintf("%d %ss, want %d", len(got.keys), what, len(want))
		}
		for id, key := range want {
			if !got.keys[id].Equal(key) {
				return fmt.Sprintf("%s id %d is %v, want %v", what, id, got.keys[id], key)
			}
			if found := got.id(key, false); int(found) != id {
				return fmt.Sprintf("%s %v resolves to id %d, want %d", what, key, found, id)
			}
		}
		return ""
	}
	if d := dict("bin", r.binKeys, tl.bins); d != "" {
		return d
	}
	if d := dict("group", r.groupKeys, tl.groups); d != "" {
		return d
	}
	if len(tl.cellRows) != len(r.cells) || len(tl.reps) != len(r.groupKeys) {
		return fmt.Sprintf("%d cells over %d groups, want %d over %d", len(tl.cellRows), len(tl.reps), len(r.cells), len(r.groupKeys))
	}
	for at, want := range r.cells {
		c := tl.cell(int32(at[0]), int32(at[1]), false)
		if c < 0 {
			return fmt.Sprintf("cell %v missing", at)
		}
		if tl.cellRows[c] != want.rows {
			return fmt.Sprintf("cell %v holds %d rows, want %d", at, tl.cellRows[c], want.rows)
		}
		for si, p := range want.parts {
			if got := tl.parts[int(c)*tl.specs+si]; got != p {
				return fmt.Sprintf("cell %v spec %d is %+v, want %+v", at, si, got, p)
			}
		}
	}
	tl.ensurePrefix()
	sorted := make([]int, len(r.binKeys))
	for i := range sorted {
		sorted[i] = i
	}
	sort.Slice(sorted, func(i, j int) bool { return relation.CompareTuples(r.binKeys[sorted[i]], r.binKeys[sorted[j]]) < 0 })
	for g := range r.groupKeys {
		sums := make([]int64, 1+3*tl.specs)
		for i, bin := range sorted {
			if int(tl.sorted[i]) != bin {
				return fmt.Sprintf("sorted bin %d is %d, want %d", i, tl.sorted[i], bin)
			}
			if c := r.cells[[2]int{g, bin}]; c != nil {
				sums[0] += c.rows
				for si, p := range c.parts {
					sums[1+3*si] += p.count
					sums[2+3*si] += p.sumI
					sums[3+3*si] += p.nonInt
				}
			}
			for f, want := range sums {
				if got := tl.prefix(g, f)[i+1]; got != want {
					return fmt.Sprintf("prefix of group %d field %d at %d is %d, want %d", g, f, i+1, got, want)
				}
			}
		}
	}
	return ""
}

// foldBlocks folds rows into tl the way eachBatch hands them over.
func foldBlocks(t *testing.T, tl *cubeTiles, cs *cubeShape, sc *cubeScratch, rows []relation.Tuple, sign int) {
	t.Helper()
	for ; len(rows) > 0; rows = rows[min(len(rows), foldBlock):] {
		if err := tl.fold(cs, sc, rows[:min(len(rows), foldBlock)], sign); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCubeFoldParityWall folds randomized fact streams through the batch
// kernel — as one chunk and as 2, 3 and 8 ragged chunks merged in order, by
// hand and through primeTiles' goroutines, then with a stream of inserts and
// deletes on top — and demands tiles equal to the row-at-a-time reference:
// the same bin ids, group ids, cells and prefix arrays. Merging the chunks
// in any other order must fail the comparison, or the wall proves nothing.
func TestCubeFoldParityWall(t *testing.T) {
	programs := []struct{ name, sql string }{
		{"bare-columns", "SELECT f.grp AS grp, count(*) AS n, sum(f.val) AS total, avg(f.val) AS mean, count(f.val) AS nn FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"},
		{"numeric-group", "SELECT f.g2 AS g, sum(f.val) AS total FROM Sel AS s, Fact AS f WHERE s.bin = f.bin GROUP BY f.g2"},
		{"multi-column", "SELECT f.grp AS grp, f.g2 AS g2, sum(f.val) AS total, count(*) AS n FROM Fact AS f, Sel AS s WHERE f.bin = s.bin AND f.b2 = s.b2 GROUP BY f.grp, f.g2"},
		{"expressions", "SELECT sum(f.val + 1) AS total, count(*) AS n FROM Fact AS f, Sel AS s WHERE f.bin + f.b2 = s.bin GROUP BY f.g2 * 2, f.grp"},
		{"global", "SELECT count(*) AS n, sum(f.val) AS total FROM Fact AS f, Sel AS s WHERE f.bin = s.bin"},
		// Function calls in the bin key, group key, aggregate argument and an
		// always-true fact-side filter: primeTiles' goroutines run the same
		// compiled evaluators at once (under -race, in CI).
		{"function-calls", "SELECT sum(abs(f.val)) AS total, count(*) AS n FROM Fact AS f, Sel AS s WHERE floor(f.bin) = s.bin AND coalesce(abs(f.val), 0) >= 0 GROUP BY floor(f.g2)"},
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			cat, fact := wallCatalog()
			rng := rand.New(rand.NewSource(int64(len(pr.sql))))
			for i := 0; i < 3000; i++ {
				fact.MustAppend(wallFactRow(rng))
			}
			dc := prepareCube(t, cat, pr.sql, true).cubes[0]
			cs, rows := &dc.shape, fact.Rows
			global := len(cs.prog.groupBy) == 0
			ref := newRefTiles(cs)
			for _, row := range rows {
				ref.apply(t, cs, row, +1)
			}

			for _, chunks := range []int{1, 2, 3, 8} {
				// Ragged cuts: the chunk sizes differ by up to 8x.
				cuts := []int{0}
				for c := 1; c < chunks; c++ {
					cuts = append(cuts, cuts[c-1]+1+rng.Intn(2*(len(rows)-cuts[c-1])/(chunks-c+1)))
				}
				cuts = append(cuts, len(rows))
				parts := make([]*cubeTiles, chunks)
				for c := range parts {
					parts[c] = newCubeTiles(len(cs.prog.specs), global)
					foldBlocks(t, parts[c], cs, cs.newScratch(), rows[cuts[c]:cuts[c+1]], +1)
				}
				if chunks > 1 {
					scrambled := newCubeTiles(len(cs.prog.specs), global)
					for c := chunks - 1; c >= 0; c-- {
						scrambled.merge(parts[c])
					}
					if ref.diff(scrambled) == "" {
						t.Fatalf("%d chunks merged in reverse order still equal the reference: the wall is blind to merge order", chunks)
					}
				}
				for _, p := range parts[1:] {
					parts[0].merge(p)
				}
				if d := ref.diff(parts[0]); d != "" {
					t.Fatalf("%d ragged chunks %v: %s", chunks, cuts, d)
				}
				built, n, err := primeTiles(cs, dc.fact, cat, chunks)
				if err != nil || n != chunks {
					t.Fatalf("primeTiles(%d chunks) = %d chunks, %v", chunks, n, err)
				}
				if d := ref.diff(built); d != "" {
					t.Fatalf("primeTiles on %d goroutines: %s", chunks, d)
				}

				// Maintenance on top of the merged build: inserts and deletes
				// in batches, through the same kernel.
				live := append([]relation.Tuple(nil), rows...)
				churn, sc := newRefTiles(cs), cs.newScratch()
				for _, row := range rows {
					churn.apply(t, cs, row, +1)
				}
				for round := 0; round < 6; round++ {
					var ins, del []relation.Tuple
					for i := 0; i < 40; i++ {
						ins = append(ins, wallFactRow(rng))
					}
					rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
					del, live = live[:60], append(live[60:], ins...)
					foldBlocks(t, built, cs, sc, ins, +1)
					foldBlocks(t, built, cs, sc, del, -1)
					for _, row := range ins {
						churn.apply(t, cs, row, +1)
					}
					for _, row := range del {
						churn.apply(t, cs, row, -1)
					}
					if d := churn.diff(built); d != "" {
						t.Fatalf("%d chunks, churn round %d: %s", chunks, round, d)
					}
				}
			}
		})
	}
}

// TestCubeFoldAllocationFree is the allocation guard: folding a 10k-row
// batch into warm tiles (every key and cell already there) allocates
// nothing — the row-at-a-time fold this replaced built a key string and a
// group-key tuple per row.
func TestCubeFoldAllocationFree(t *testing.T) {
	cat, fact := wallCatalog()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		fact.MustAppend(wallFactRow(rng))
	}
	for _, sql := range []string{
		"SELECT f.grp AS grp, count(*) AS n, sum(f.val) AS total FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp",
		"SELECT f.grp AS grp, f.g2 AS g2, sum(f.val) AS total FROM Fact AS f, Sel AS s WHERE f.bin = s.bin AND f.b2 = s.b2 GROUP BY f.grp, f.g2",
	} {
		dc := prepareCube(t, cat, sql, true).cubes[0]
		tl, sc := newCubeTiles(len(dc.shape.prog.specs), false), dc.shape.newScratch()
		foldBlocks(t, tl, &dc.shape, sc, fact.Rows, +1)
		allocs := testing.AllocsPerRun(5, func() { foldBlocks(t, tl, &dc.shape, sc, fact.Rows, +1) })
		if allocs != 0 {
			t.Errorf("folding %d rows into warm tiles allocated %.0f objects, want 0\n%s", len(fact.Rows), allocs, sql)
		}
	}
}

// TestCubeSumWraps pins integer overflow (ROADMAP 5c): a SUM that exceeds
// int64 wraps, and wraps to the same value in the tiles' cells (a gapped
// selection is answered bin by bin), in the prefix arrays (a contiguous one
// by two subtractions) and in the full recomputation.
func TestCubeSumWraps(t *testing.T) {
	cat, fact, sel := cubeCatalog()
	for i := 0; i < 12; i++ {
		fact.MustAppend(relation.Tuple{relation.Int(int64(i % 6)), relation.String("a"), relation.Int(math.MaxInt64/4 - int64(i))})
	}
	sql := "SELECT f.grp AS grp, sum(f.val) AS total, count(*) AS n FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"
	live, oracle := prepareCube(t, cat, sql, true), prepareCube(t, cat, sql, true)
	ex := New(cat)
	if _, err := ex.RunStateful(live); err != nil {
		t.Fatal(err)
	}
	dc := live.cubes[0]
	for _, c := range []struct {
		bins   []int64
		prefix bool
	}{{[]int64{0, 1, 2, 3, 4, 5}, true}, {[]int64{0, 2, 3, 5}, false}, {[]int64{1, 2, 3, 4}, true}} {
		d := relation.Delta{Del: append([]relation.Tuple(nil), sel.Rows...)}
		for _, b := range c.bins {
			d.Ins = append(d.Ins, relation.Tuple{relation.Int(b)})
		}
		if err := sel.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.ApplyDelta(live, map[string]relation.Delta{"sel": d}); err != nil {
			t.Fatal(err)
		}
		if ok, _, _ := dc.selRange(dc.curTiles()); ok != c.prefix {
			t.Fatalf("bins %v: prefix path = %t, want %t", c.bins, ok, c.prefix)
		}
		want, err := ex.RunPrepared(oracle)
		if err != nil {
			t.Fatal(err)
		}
		got := dc.totals[0].emitted
		if len(want.Rel.Rows) != 1 || !got.Equal(want.Rel.Rows[0]) {
			t.Fatalf("bins %v: tiles say %v, recomputation says %v", c.bins, got, want.Rel.Rows)
		}
		var exact int64 // wrapping addition, spelled out
		for _, row := range fact.Rows {
			bin, _ := row[0].AsInt()
			if v, _ := row[2].AsInt(); slices.Contains(c.bins, bin) {
				exact += v
			}
		}
		if total, _ := got[1].AsInt(); got[1].Kind() != relation.KindInt || total != exact {
			t.Fatalf("bins %v: total %v, want the wrapped int %d", c.bins, got[1], exact)
		}
	}
	if total, _ := dc.totals[0].emitted[1].AsInt(); total >= 0 {
		t.Fatalf("the last sum (%d) was meant to wrap negative: the test lost its point", total)
	}
}

// TestCubeSelectionDictionaryBounded churns a selection through a thousand
// keys it never returns to: the operator's dictionary of selection keys must
// follow the selection, not its history, and still answer exactly.
func TestCubeSelectionDictionaryBounded(t *testing.T) {
	cat, fact, sel := cubeCatalog()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		fact.MustAppend(randFactRow(rng))
	}
	sql := "SELECT f.grp AS grp, sum(f.val) AS total FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"
	live, oracle := prepareCube(t, cat, sql, true), prepareCube(t, cat, sql, true)
	ex := New(cat)
	res, err := ex.RunStateful(live)
	if err != nil {
		t.Fatal(err)
	}
	mat := relation.New("out", res.Rel.Schema)
	mat.Rows = res.Rel.Rows
	for step := 0; step < 1000; step++ {
		d := relation.Delta{Del: append([]relation.Tuple(nil), sel.Rows...)}
		d.Ins = []relation.Tuple{{relation.Int(int64(step % cubeBins))}, {relation.Int(int64(1000 + step))}}
		if err := sel.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		od, err := ex.ApplyDelta(live, map[string]relation.Delta{"sel": d})
		if err != nil {
			t.Fatal(err)
		}
		if err := mat.ApplyDelta(od); err != nil {
			t.Fatal(err)
		}
		if want, _ := ex.RunPrepared(oracle); !relation.Equal(mat, want.Rel) {
			t.Fatalf("step %d: %v, recomputation says %v", step, mat.Rows, want.Rel.Rows)
		}
	}
	if n := len(live.cubes[0].selBins.keys); n > 200 {
		t.Fatalf("selection dictionary holds %d keys for a 2-key selection", n)
	}
}
