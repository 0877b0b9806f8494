package exec

// Randomized parity for incremental ORDER BY / LIMIT: random insert /
// delete / update / boundary-targeted streams drive stateful pipelines over
// ordered programs, and after every event the maintained output must equal
// a full recomputation — in exact row order, not just as a bag. Same oracle
// pattern as core's store_parity_test.go: the stateless path (RunPrepared,
// which re-sorts from scratch) is the ground truth the delta path must
// reproduce, covering ties, duplicate keys, k > |rows|, k = 0, and
// deletions exactly at the k-th boundary.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// topkCatalog holds one mutable base relation the streams churn.
func topkCatalog() (memCatalog, *relation.Relation) {
	items := relation.New("Items", relation.NewSchema(
		relation.Col("id", relation.KindInt),
		relation.Col("grp", relation.KindString),
		relation.Col("v", relation.KindInt),
		relation.Col("w", relation.KindInt),
	))
	return memCatalog{"items": items}, items
}

var topkGroups = []string{"a", "b", "c"}

// randItem draws from tight domains so duplicate rows and key ties are
// constant, not coincidental.
func randItem(rng *rand.Rand) relation.Tuple {
	return relation.Tuple{
		relation.Int(int64(rng.Intn(30))),
		relation.String(topkGroups[rng.Intn(len(topkGroups))]),
		relation.Int(int64(rng.Intn(10))),
		relation.Int(int64(rng.Intn(4))),
	}
}

func prepareOrdered(t *testing.T, cat memCatalog, sql string) *Prepared {
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

func assertOrderedEqual(t *testing.T, step string, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle has %d\ngot:    %v\noracle: %v", step, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: row %d = %v, oracle %v\ngot:    %v\noracle: %v", step, i, got[i], want[i], got, want)
		}
	}
}

func TestTopKDeltaOrderedParityWithRecompute(t *testing.T) {
	programs := []struct {
		name string
		sql  string
	}{
		{"orderby-full", "SELECT id, v FROM Items ORDER BY v, id"},
		{"topk-desc", "SELECT id, v, w FROM Items ORDER BY v DESC, id LIMIT 5"},
		{"topk-dup-rows", "SELECT grp, w FROM Items ORDER BY w DESC, grp LIMIT 7"},
		{"topk-k0", "SELECT id FROM Items ORDER BY id LIMIT 0"},
		{"topk-k-over-rows", "SELECT id, v FROM Items WHERE v >= 2 ORDER BY v DESC, id LIMIT 1000"},
		{"topk-over-aggregate", "SELECT grp, sum(v) AS total, count(*) AS n FROM Items GROUP BY grp ORDER BY total DESC, grp LIMIT 2"},
		{"orderby-over-distinct", "SELECT DISTINCT grp, v FROM Items ORDER BY v DESC, grp"},
		{"bare-limit-k0", "SELECT id, v FROM Items LIMIT 0"},
		{"topk-over-global-aggregate", "SELECT count(*) AS n, sum(v) AS total FROM Items ORDER BY n LIMIT 3"},
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			cat, items := topkCatalog()
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 12; i++ { // non-empty start, with duplicates likely
				items.MustAppend(randItem(rng))
			}
			live := prepareOrdered(t, cat, pr.sql)
			oracle := prepareOrdered(t, cat, pr.sql) // stateless arm of the same plan
			ex := New(cat)

			res, err := ex.RunStateful(live)
			if err != nil {
				t.Fatal(err)
			}
			// mat mirrors what the engine materializes: bag-patched by each
			// output delta, then overwritten with the maintained order.
			mat := relation.New("out", res.Rel.Schema)
			mat.Rows = append([]relation.Tuple(nil), res.Rel.Rows...)

			check := func(step string) {
				want, err := ex.RunPrepared(oracle)
				if err != nil {
					t.Fatalf("%s: oracle: %v", step, err)
				}
				rows := mat.Rows
				if live.Ordered() {
					rows = live.OrderedRows()
				}
				assertOrderedEqual(t, step, rows, want.Rel.Rows)
				if !relation.Equal(mat, want.Rel) {
					t.Fatalf("%s: materialized bag diverges from oracle", step)
				}
				// OrderRows (the engine's restore-order primitive) must
				// re-establish the exact output order from a scrambled copy
				// of the same bag — the rollback/undo case.
				scrambled := append([]relation.Tuple(nil), want.Rel.Rows...)
				for i, j := 0, len(scrambled)-1; i < j; i, j = i+1, j-1 {
					scrambled[i], scrambled[j] = scrambled[j], scrambled[i]
				}
				if err := live.OrderRows(scrambled); err != nil {
					t.Fatalf("%s: OrderRows: %v", step, err)
				}
				assertOrderedEqual(t, step+" (OrderRows)", scrambled, want.Rel.Rows)
			}
			check("after priming")

			apply := func(step string, d relation.Delta) {
				if err := items.ApplyDelta(d); err != nil {
					t.Fatalf("%s: base apply: %v", step, err)
				}
				od, err := ex.ApplyDelta(live, map[string]relation.Delta{"items": d})
				if err != nil {
					t.Fatalf("%s: pipeline: %v", step, err)
				}
				if err := mat.ApplyDelta(od); err != nil {
					t.Fatalf("%s: output delta does not apply: %v", step, err)
				}
				if live.Ordered() {
					mat.Rows = live.OrderedRows()
				}
				check(step)
			}

			for ev := 0; ev < 160; ev++ {
				step := fmt.Sprintf("event %d", ev)
				switch op := rng.Intn(10); {
				case op < 4: // insert
					apply(step, relation.Delta{Ins: []relation.Tuple{randItem(rng)}})
				case op < 6 && len(items.Rows) > 0: // delete a random held row
					row := items.Rows[rng.Intn(len(items.Rows))]
					apply(step, relation.Delta{Del: []relation.Tuple{row}})
				case op < 8 && len(items.Rows) > 0: // update: delete+insert in one event
					row := items.Rows[rng.Intn(len(items.Rows))]
					apply(step, relation.Delta{Del: []relation.Tuple{row}, Ins: []relation.Tuple{randItem(rng)}})
				case op == 8: // boundary surgery at the current k-th output row
					want, err := ex.RunPrepared(oracle)
					if err != nil {
						t.Fatal(err)
					}
					out := want.Rel.Rows
					if len(out) == 0 {
						apply(step, relation.Delta{Ins: []relation.Tuple{randItem(rng)}})
						continue
					}
					kth := out[len(out)-1] // the row holding the boundary
					// Find a base row contributing a v/w tie with the
					// boundary and delete it, forcing a promotion across the
					// k-th position; fall back to an insert when the output
					// row has no 1:1 base counterpart (aggregates, distinct).
					deleted := false
					for _, base := range items.Rows {
						if base[2].Equal(kth[len(kth)-1]) || base[3].Equal(kth[len(kth)-1]) {
							apply(step+" (boundary delete)", relation.Delta{Del: []relation.Tuple{base}})
							deleted = true
							break
						}
					}
					if !deleted {
						apply(step, relation.Delta{Ins: []relation.Tuple{randItem(rng)}})
					}
				default: // burst: several changes in one delta
					var d relation.Delta
					for j := 0; j < 3; j++ {
						d.Ins = append(d.Ins, randItem(rng))
					}
					if len(items.Rows) > 1 {
						d.Del = append(d.Del, items.Rows[0], items.Rows[len(items.Rows)-1])
					}
					apply(step, d)
				}
			}

			// Drain to empty: every maintained prefix must survive k > |rows|
			// shrinking through the boundary to the empty output.
			for len(items.Rows) > 0 {
				row := items.Rows[len(items.Rows)-1]
				apply("drain", relation.Delta{Del: []relation.Tuple{row}})
			}
			if live.Ordered() && len(live.OrderedRows()) != len(mat.Rows) {
				t.Fatal("drained pipeline's ordered rows disagree with its output")
			}

			// Prime again, now over nothing: the priming batch is an empty
			// insert, and the next event is the first row ever.
			if res, err = ex.RunStateful(live); err != nil {
				t.Fatal(err)
			}
			mat.Rows = append([]relation.Tuple(nil), res.Rel.Rows...)
			check("re-primed over empty input")
			apply("first row", relation.Delta{Ins: []relation.Tuple{randItem(rng)}})
		})
	}
}
