package exec

// Randomized stream-vs-recompute parity: the same programs run through the
// delta pipeline (aggregates consuming their child's stream) and through a
// stateless full recompute as oracle, and after every event the two must
// agree exactly. Values are integers so float accumulation order cannot
// blur the comparison (the stream interleaves inserts and deletes where the
// oracle sees only the net contents).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

func prepareFusion(t *testing.T, cat memCatalog, sql string) *Prepared {
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
	return p
}

// TestFusedDeltaParityWithRowPath walls the dJoin/dFilter→dAggregate
// pipeline against a full recompute. Every join program carries a max(...)
// column: MIN/MAX does not decompose over cube bins, so it keeps the view
// off the index tiles (as in production) and on the fused path.
func TestFusedDeltaParityWithRowPath(t *testing.T) {
	programs := []struct {
		name string
		sql  string
	}{
		{"join-agg", "SELECT f.grp AS grp, count(*) AS n, sum(f.val) AS total, avg(f.val) AS mean, max(f.val) AS hi FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"},
		{"join-agg-global", "SELECT count(*) AS n, sum(f.val) AS total, max(f.val) AS hi FROM Fact AS f, Sel AS s WHERE f.bin = s.bin"},
		{"join-residual-filter", "SELECT f.grp AS grp, sum(f.val) AS total, max(f.val) AS hi FROM Fact AS f, Sel AS s WHERE f.bin = s.bin AND f.val >= 2 GROUP BY f.grp"},
		{"filter-agg-int-kernel", "SELECT grp, count(*) AS n, sum(val) AS total FROM Fact WHERE bin > 4 GROUP BY grp"},
		{"filter-agg-string-kernel", "SELECT bin, count(*) AS n FROM Fact WHERE grp = 'a' GROUP BY bin"},
		{"filter-agg-minmax", "SELECT grp, min(val) AS lo, max(val) AS hi FROM Fact WHERE bin <= 7 GROUP BY grp"},
		{"filter-agg-distinct", "SELECT grp, count(DISTINCT val) AS nv FROM Fact WHERE val <> 3 GROUP BY grp"},
		{"having", "SELECT f.grp AS grp, count(*) AS n, max(f.val) AS hi FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp HAVING count(*) > 2"},
		// Expression aggregate argument over a join: the group key is bare
		// but the argument is not, so allBare is off and split join rows
		// materialize into the scratch tuple before accumulating.
		{"join-agg-expr-arg", "SELECT f.grp AS grp, sum(f.val * 2) AS total, max(f.val) AS hi FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp"},
		// Closure filter (no kernel: the predicate is not column-vs-literal)
		// feeding the aggregate through the streaming path.
		{"filter-agg-closure", "SELECT grp, count(*) AS n FROM Fact WHERE val + 0 > 2 GROUP BY grp"},
		// Mirrored kernel: literal on the left normalizes to column-left.
		{"filter-agg-mirrored-kernel", "SELECT grp, count(*) AS n FROM Fact WHERE 4 < bin GROUP BY grp"},
		// Two-column group key: the g1 single-key map stays off and groups
		// go through tuple hashing on the fused path too.
		{"join-agg-two-keys", "SELECT f.grp AS grp, f.bin AS b, count(*) AS n, max(f.val) AS hi FROM Fact AS f, Sel AS s WHERE f.bin = s.bin GROUP BY f.grp, f.bin"},
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			cat, fact, sel := cubeCatalog()
			rng := rand.New(rand.NewSource(37))
			for i := 0; i < 40; i++ {
				fact.MustAppend(randFactRow(rng))
			}
			for b := 2; b <= 6; b++ {
				sel.MustAppend(relation.Tuple{relation.Int(int64(b))})
			}

			fused := prepareFusion(t, cat, pr.sql)
			oracle := prepareFusion(t, cat, pr.sql)
			if fused.HasCube() {
				t.Fatal("program is on the cube path; this wall is for the fused pipeline (tiles have their own wall)")
			}
			ex := New(cat)

			prime := func(p *Prepared) *relation.Relation {
				t.Helper()
				res, err := ex.RunStateful(p)
				if err != nil {
					t.Fatal(err)
				}
				out := relation.New("out", res.Rel.Schema)
				out.Rows = append([]relation.Tuple(nil), res.Rel.Rows...)
				return out
			}
			matF := prime(fused)

			check := func(step string) {
				t.Helper()
				want, err := ex.RunPrepared(oracle)
				if err != nil {
					t.Fatalf("%s: oracle: %v", step, err)
				}
				if !relation.Equal(matF, want.Rel) {
					t.Fatalf("%s: fused output diverges from recompute\ngot:    %v\noracle: %v", step, matF.Rows, want.Rel.Rows)
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
				in := map[string]relation.Delta{"fact": df, "sel": ds}
				od, err := ex.ApplyDelta(fused, in)
				if err != nil {
					t.Fatalf("%s: pipeline: %v", step, err)
				}
				if err := matF.ApplyDelta(od); err != nil {
					t.Fatalf("%s: output delta does not apply: %v", step, err)
				}
				check(step)
			}

			for ev := 0; ev < 150; ev++ {
				step := fmt.Sprintf("event %d", ev)
				switch op := rng.Intn(10); {
				case op < 4: // fact insert
					apply(step, relation.Delta{Ins: []relation.Tuple{randFactRow(rng)}}, relation.Delta{})
				case op < 6 && len(fact.Rows) > 0: // fact delete
					row := fact.Rows[rng.Intn(len(fact.Rows))]
					apply(step, relation.Delta{Del: []relation.Tuple{row}}, relation.Delta{})
				case op < 8: // brush move: replace the selection with a range
					lo := rng.Intn(cubeBins)
					hi := lo + rng.Intn(cubeBins-lo)
					var ins []relation.Tuple
					for b := lo; b <= hi; b++ {
						ins = append(ins, relation.Tuple{relation.Int(int64(b))})
					}
					apply(step+" (brush)", relation.Delta{}, relation.Delta{Del: append([]relation.Tuple(nil), sel.Rows...), Ins: ins})
				default: // mixed batch
					var df relation.Delta
					for j := 0; j < 3; j++ {
						df.Ins = append(df.Ins, randFactRow(rng))
					}
					if len(fact.Rows) > 1 {
						df.Del = append(df.Del, fact.Rows[0], fact.Rows[len(fact.Rows)-1])
					}
					apply(step+" (mixed)", df, relation.Delta{Ins: []relation.Tuple{{relation.Int(int64(rng.Intn(cubeBins)))}}})
				}
			}

			// Drain to empty: the fused stream must retire groups exactly.
			apply("drain selection", relation.Delta{}, relation.Delta{Del: append([]relation.Tuple(nil), sel.Rows...)})
			for len(fact.Rows) > 0 {
				row := fact.Rows[len(fact.Rows)-1]
				apply("drain fact", relation.Delta{Del: []relation.Tuple{row}}, relation.Delta{})
			}

			fs := fused.TakeExecStats()
			if fs.FusedApplies == 0 || fs.BatchRows == 0 {
				t.Fatalf("fused arm recorded no fused work: %+v", fs)
			}
			if fs.RowFallbacks != 0 {
				t.Fatalf("fused arm fell back to rows %d times", fs.RowFallbacks)
			}
			if again := fused.TakeExecStats(); again != (ExecStats{}) {
				t.Fatalf("TakeExecStats did not drain: %+v", again)
			}
		})
	}
}

// TestBareLimitDeltaMaintained pins the bare-LIMIT delta rule: the pipeline
// is delta-safe, Ordered (a zero-key order-statistic tree maintains the
// deterministic full-tuple order), and its maintained prefix matches the
// full path after arbitrary churn.
func TestBareLimitDeltaMaintained(t *testing.T) {
	cat, fact, _ := cubeCatalog()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		fact.MustAppend(randFactRow(rng))
	}
	sql := "SELECT bin, val FROM Fact LIMIT 5"
	live := prepareFusion(t, cat, sql)
	oracle := prepareFusion(t, cat, sql)
	if !live.Ordered() {
		t.Fatal("bare LIMIT should maintain an ordered prefix")
	}
	ex := New(cat)
	if _, err := ex.RunStateful(live); err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		got := live.OrderedRows()
		want, err := ex.RunPrepared(oracle)
		if err != nil {
			t.Fatalf("%s: oracle: %v", step, err)
		}
		if len(got) != len(want.Rel.Rows) {
			t.Fatalf("%s: prefix has %d rows, oracle %d", step, len(got), len(want.Rel.Rows))
		}
		for i := range got {
			if !got[i].Equal(want.Rel.Rows[i]) {
				t.Fatalf("%s: prefix row %d = %v, oracle %v", step, i, got[i], want.Rel.Rows[i])
			}
		}
	}
	check("after priming")
	for ev := 0; ev < 120; ev++ {
		var d relation.Delta
		if rng.Intn(3) > 0 || len(fact.Rows) == 0 {
			d.Ins = []relation.Tuple{randFactRow(rng)}
		} else {
			d.Del = []relation.Tuple{fact.Rows[rng.Intn(len(fact.Rows))]}
		}
		if err := fact.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.ApplyDelta(live, map[string]relation.Delta{"fact": d}); err != nil {
			t.Fatalf("event %d: %v", ev, err)
		}
		check(fmt.Sprintf("event %d", ev))
	}
}

// TestProjectStreamDelta drives dProject.apply directly: projected rows are
// pushed whole and immutable, so a consumer may retain them by reference.
func TestProjectStreamDelta(t *testing.T) {
	cat, fact, _ := cubeCatalog()
	fact.MustAppend(relation.Tuple{relation.Int(1), relation.String("a"), relation.Int(10)})
	fact.MustAppend(relation.Tuple{relation.Int(2), relation.String("b"), relation.Int(20)})
	sql := "SELECT grp, val * 2 AS dbl FROM Fact"
	live := prepareFusion(t, cat, sql)
	dp, ok := live.droot.(*dProject)
	if !ok {
		t.Fatalf("plan root is %T, want *dProject", live.droot)
	}
	ex := New(cat)
	if _, err := ex.RunStateful(live); err != nil {
		t.Fatal(err)
	}
	din := map[string]relation.Delta{"fact": {
		Ins: []relation.Tuple{{relation.Int(3), relation.String("c"), relation.Int(30)}},
		Del: []relation.Tuple{{relation.Int(1), relation.String("a"), relation.Int(10)}},
	}}
	// Retain the pushed tuples and render them only after the stream ends: a
	// producer that reused a scratch row would show the last row twice.
	var kept []relation.Tuple
	var signs []int
	err := dp.apply(deltaIn{rel: din}, func(l, r relation.Tuple, sign int) error {
		if r != nil {
			t.Fatalf("project pushed a split row: %v | %v", l, r)
		}
		kept, signs = append(kept, l), append(signs, sign)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, row := range kept {
		got = append(got, fmt.Sprintf("%+d:%v", signs[i], row))
	}
	want := []string{"+1:[c 60]", "-1:[a 20]"}
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream row %d = %q, want %q", i, got[i], want[i])
		}
	}
}
