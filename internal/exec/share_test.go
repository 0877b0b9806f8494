package exec

// Shared join build sides, driven entirely in-package: two sessions with
// private selections attach to one build-side state over the shared fact
// relation, the writer advances it once per base batch (including deletes
// and NULL join keys), sessions fan out reading the cached subtree delta,
// and release + sweep evicts. Every step is checked against a stateless
// recompute of the same plan.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

func TestSharedJoinSides(t *testing.T) {
	fact := relation.New("Fact", relation.NewSchema(
		relation.Col("bin", relation.KindInt),
		relation.Col("grp", relation.KindString),
		relation.Col("val", relation.KindInt),
	))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		fact.MustAppend(randFactRow(rng))
	}
	newSel := func(bins ...int64) *relation.Relation {
		sel := relation.New("Sel", relation.NewSchema(relation.Col("bin", relation.KindInt)))
		for _, b := range bins {
			sel.MustAppend(relation.Tuple{relation.Int(b)})
		}
		return sel
	}
	selA, selB := newSel(1, 2, 3), newSel(8)
	catA := memCatalog{"fact": fact, "sel": selA}
	catB := memCatalog{"fact": fact, "sel": selB}
	g := NewShareGroup(func(name string) bool { return name == "fact" })

	// A plain join view (no aggregate): the fact side subtree — a filtered
	// scan, so the fingerprint walk sees more than a bare scan — indexes by
	// bin and is shared; the selection side stays private.
	sql := "SELECT f.grp AS grp, f.val AS val, s.bin AS bin FROM Fact AS f, Sel AS s WHERE f.bin = s.bin AND f.val >= 0"
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
		if !p.SharesState() || p.HasCube() {
			t.Fatalf("join pipeline: SharesState=%t HasCube=%t, want shared join without cube", p.SharesState(), p.HasCube())
		}
		return p
	}
	pA, pB := prepShared(catA), prepShared(catB)
	exA, exB := New(catA), New(catB)
	oracleA, oracleB := prepareCube(t, catA, sql, false), prepareCube(t, catB, sql, false)

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
		t.Fatalf("side sharing: Builds=%d Reuses=%d, want one build + one reuse", st.Builds, st.Reuses)
	}
	if g.Sides() != 1 || g.SharedRows() == 0 || g.ApproxBytes() == 0 {
		t.Fatalf("shared accounting: sides=%d rows=%d bytes=%d", g.Sides(), g.SharedRows(), g.ApproxBytes())
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

	sessions := []struct {
		ex    *Executor
		p, o  *Prepared
		mat   *relation.Relation
		sel   *relation.Relation
		label string
	}{{exA, pA, oracleA, matA, selA, "A"}, {exB, pB, oracleB, matB, selB, "B"}}

	// Writer rounds: inserts, deletes, and NULL-key rows flow through the
	// shared state exactly once; both sessions consume the cached delta.
	for round := 0; round < 6; round++ {
		var df relation.Delta
		for j := 0; j < 3; j++ {
			df.Ins = append(df.Ins, randFactRow(rng))
		}
		df.Ins = append(df.Ins, relation.Tuple{relation.Null(), relation.String("a"), relation.Int(1)})
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
		for _, s := range sessions {
			if round == 3 && s.label == "B" {
				// A session that loses its state inside the fan-out window
				// (here: an inconsistent private delete) re-primes against a
				// shared side that already holds the batch. Priming must read
				// that side as current — private rows probing it, the cached
				// batch delta not applied a second time.
				bogus := relation.Tuple{relation.Int(99)}
				if _, err := s.ex.ApplyDelta(s.p, map[string]relation.Delta{"sel": {Del: []relation.Tuple{bogus}}}); err == nil || s.p.Primed() {
					t.Fatalf("bogus private delete: err=%v primed=%t, want an error and a reset", err, s.p.Primed())
				}
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
	if st := g.Stats(); st.Builds != 1 || st.Reuses != 1 {
		t.Fatalf("re-priming an attached pipeline touched the registry: Builds=%d Reuses=%d", st.Builds, st.Reuses)
	}

	// Private selection churn probes the shared state under the read path.
	for ev := 0; ev < 20; ev++ {
		for _, s := range sessions {
			var d relation.Delta
			if len(s.sel.Rows) > 0 && rng.Intn(2) == 0 {
				d.Del = append(d.Del, s.sel.Rows[rng.Intn(len(s.sel.Rows))])
			}
			d.Ins = append(d.Ins, relation.Tuple{relation.Int(int64(rng.Intn(cubeBins)))})
			if err := s.sel.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			od, err := s.ex.ApplyDelta(s.p, map[string]relation.Delta{"sel": d})
			if err != nil {
				t.Fatalf("session %s probe: %v", s.label, err)
			}
			if err := s.mat.ApplyDelta(od); err != nil {
				t.Fatalf("session %s output delta: %v", s.label, err)
			}
			check(fmt.Sprintf("probe %d session %s", ev, s.label), s.ex, s.o, s.mat)
		}
	}

	// Unknown base change: the writer rebuilds the side wholesale; sessions
	// re-prime against the fresh state.
	fact.Rows = fact.Rows[:len(fact.Rows)-2]
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

	pA.ReleaseShared()
	pB.ReleaseShared()
	if n := g.Sweep(); n != 1 {
		t.Fatalf("Sweep() = %d, want 1 evicted side", n)
	}
	if g.Sides() != 0 {
		t.Fatalf("Sides() = %d after sweep, want 0", g.Sides())
	}
}
