package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// deltaCatalog builds random Sales/Regions relations with integral values
// (sums of integral floats are exact in any order, so incremental and full
// results compare bit-exactly).
func deltaCatalog(rng *rand.Rand, n int) memCatalog {
	cat := salesCatalog()
	sales := relation.New("Sales", cat["sales"].Schema)
	for i := 0; i < n; i++ {
		sales.MustAppend(randSalesRow(rng, int64(i+1)))
	}
	cat["sales"] = sales
	return cat
}

var deltaRegions = []string{"east", "west", "north", "south"}

func randSalesRow(rng *rand.Rand, id int64) relation.Tuple {
	return relation.Tuple{
		relation.Int(id),
		relation.String(deltaRegions[rng.Intn(len(deltaRegions))]),
		relation.Float(float64(rng.Intn(40) * 10)),
		relation.Float(float64(rng.Intn(21) - 10)),
	}
}

func prepareDelta(t *testing.T, cat memCatalog, sql string) (*Executor, *Prepared) {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	funcs := expr.NewRegistry()
	p = plan.Optimize(p, funcs)
	prep, err := Prepare(p, funcs)
	if err != nil {
		t.Fatal(err)
	}
	return &Executor{Cat: cat, Funcs: funcs}, prep
}

// TestApplyDeltaMatchesFullRun replays random mutation batches on the Sales
// base table through the stateful pipeline of each query and checks, after
// every batch, that the incrementally maintained result equals a fresh full
// run over the mutated catalog.
func TestApplyDeltaMatchesFullRun(t *testing.T) {
	queries := []string{
		"SELECT region, revenue FROM Sales WHERE revenue > 150",
		"SELECT region, revenue * 2 AS rr, profit + 1 AS pp FROM Sales",
		"SELECT region, count(*) AS n, sum(revenue) AS s, avg(revenue) AS a FROM Sales GROUP BY region",
		"SELECT region, min(revenue) AS lo, max(revenue) AS hi FROM Sales GROUP BY region",
		"SELECT count(*) AS n, sum(profit) AS p, count(DISTINCT region) AS d FROM Sales",
		"SELECT DISTINCT region FROM Sales",
		"SELECT s.region, r.country, s.revenue FROM Sales AS s, Regions AS r WHERE s.region = r.name",
		"SELECT a.productId AS x, b.productId AS y FROM Sales AS a, Sales AS b WHERE a.revenue < b.revenue AND a.productId <= 4 AND b.productId <= 4",
		"SELECT region, sum(revenue) AS t FROM Sales GROUP BY region HAVING sum(revenue) > 400",
		"SELECT region FROM Sales UNION SELECT name FROM Regions",
		"SELECT region FROM Sales UNION ALL SELECT name FROM Regions",
		"SELECT name FROM Regions MINUS SELECT region FROM Sales WHERE revenue > 200",
		"SELECT name FROM Regions INTERSECT SELECT region FROM Sales",
		// What the priming batch must get right with no rule of its own: a
		// global aggregate owes its one row even over nothing, a SELECT
		// without FROM its one row once and no change ever after, LIMIT 0
		// and LIMIT k > |rows| the whole-prefix boundaries, and a self-join
		// sees one relation's rows arrive on both sides (ΔL ⋈ ∅, then
		// L ⋈ ΔR — once, not twice).
		"SELECT count(*) AS n, sum(revenue) AS s, max(profit) AS hi FROM Sales",
		"SELECT 1 AS one, 'x' AS tag",
		"SELECT region, revenue FROM Sales LIMIT 0",
		"SELECT productId, region FROM Sales LIMIT 1000",
		"SELECT a.productId AS x, b.productId AS y FROM Sales AS a, Sales AS b WHERE a.region = b.region",
		// The same tuple arrives on both sides of the priming batch: only
		// the net membership may ship.
		"SELECT region FROM Sales MINUS SELECT name FROM Regions",
	}
	for _, sql := range queries {
		for _, start := range []int{12, 0} {
			sql, start := sql, start
			t.Run(fmt.Sprintf("%s/start=%d", sql, start), func(t *testing.T) {
				rng := rand.New(rand.NewSource(99))
				cat := deltaCatalog(rng, start)
				ex, prep := prepareDelta(t, cat, sql)
				if !prep.DeltaSafe() {
					t.Fatalf("plan unexpectedly not delta-safe: %s", prep.DeltaReason())
				}
				res, err := ex.RunStateful(prep)
				if err != nil {
					t.Fatal(err)
				}
				inc := res.Rel.Snapshot()
				if full, err := ex.RunPrepared(prep); err != nil {
					t.Fatal(err)
				} else if !relation.Equal(inc, full.Rel) {
					t.Fatalf("priming diverges from full run\nprimed:\n%s\nfull:\n%s", inc, full.Rel)
				}
				nextID := int64(1000)
				sales := cat["sales"]
				for round := 0; round < 25; round++ {
					var d relation.Delta
					for k := rng.Intn(3) + 1; k > 0; k-- {
						nextID++
						row := randSalesRow(rng, nextID)
						sales.Rows = append(sales.Rows, row)
						d.Ins = append(d.Ins, row)
					}
					for k := rng.Intn(3); k > 0 && len(sales.Rows) > 0; k-- {
						i := rng.Intn(len(sales.Rows))
						d.Del = append(d.Del, sales.Rows[i])
						sales.Rows = append(sales.Rows[:i], sales.Rows[i+1:]...)
					}
					out, err := ex.ApplyDelta(prep, map[string]relation.Delta{"sales": d})
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					// The output delta is a signed bag: a batch that inserts and
					// deletes the same row (or changes both sides of a self-join)
					// may ship a row both ways. Relation.ApplyDelta wants the net.
					if err := inc.ApplyDelta(out.Consolidate()); err != nil {
						t.Fatalf("round %d: applying output delta: %v", round, err)
					}
					full, err := ex.RunPrepared(prep)
					if err != nil {
						t.Fatal(err)
					}
					if !relation.Equal(inc, full.Rel) {
						t.Fatalf("round %d: incremental result diverges from full run\nincremental:\n%s\nfull:\n%s",
							round, inc, full.Rel)
					}
				}
			})
		}
	}
}

// TestApplyDeltaEmptyInputIsEmptyOutput checks the short-circuit: deltas on
// relations a plan never scans produce an empty output delta.
func TestApplyDeltaEmptyInputIsEmptyOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cat := deltaCatalog(rng, 8)
	ex, prep := prepareDelta(t, cat, "SELECT region, sum(revenue) AS s FROM Sales GROUP BY region")
	if _, err := ex.RunStateful(prep); err != nil {
		t.Fatal(err)
	}
	out, err := ex.ApplyDelta(prep, map[string]relation.Delta{
		"regions": {Ins: []relation.Tuple{{relation.String("x"), relation.String("Y")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Empty() {
		t.Fatalf("delta on unscanned relation produced %s", out)
	}
}

// TestApplyDeltaInconsistentStateResets checks that a delete for a row the
// state never saw errors and unprimes the pipeline.
func TestApplyDeltaInconsistentStateResets(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cat := deltaCatalog(rng, 6)
	ex, prep := prepareDelta(t, cat, "SELECT region, count(*) AS n FROM Sales GROUP BY region")
	if _, err := ex.RunStateful(prep); err != nil {
		t.Fatal(err)
	}
	bogus := relation.Tuple{
		relation.Int(777), relation.String("nowhere"),
		relation.Float(1), relation.Float(1),
	}
	if _, err := ex.ApplyDelta(prep, map[string]relation.Delta{
		"sales": {Del: []relation.Tuple{bogus}},
	}); err == nil {
		t.Fatal("deleting a never-seen row should error")
	}
	if prep.Primed() {
		t.Fatal("pipeline should be unprimed after a delta error")
	}
	// Re-priming recovers: the result is the full run's again, and the next
	// delta applies on top of it.
	res, err := ex.RunStateful(prep)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Primed() {
		t.Fatal("RunStateful should re-prime")
	}
	inc := res.Rel.Snapshot()
	row := randSalesRow(rng, 778)
	cat["sales"].Rows = append(cat["sales"].Rows, row)
	out, err := ex.ApplyDelta(prep, map[string]relation.Delta{"sales": {Ins: []relation.Tuple{row}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.ApplyDelta(out); err != nil {
		t.Fatal(err)
	}
	if full, err := ex.RunPrepared(prep); err != nil {
		t.Fatal(err)
	} else if !relation.Equal(inc, full.Rel) {
		t.Fatalf("after re-prime + delta: incremental\n%s\nfull\n%s", inc, full.Rel)
	}
}

// TestNotDeltaSafeReasons spot-checks shapes that must fall back.
func TestNotDeltaSafeReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cat := deltaCatalog(rng, 4)
	for _, sql := range []string{
		"SELECT region FROM Sales WHERE revenue > (SELECT min(revenue) FROM Sales)",
		"SELECT region FROM Sales WHERE region IN USRegions",
	} {
		_, prep := prepareDelta(t, cat, sql)
		if prep.DeltaSafe() {
			t.Errorf("%q should not be delta-safe", sql)
		} else if prep.DeltaReason() == "" {
			t.Errorf("%q should carry a reason", sql)
		}
	}
}

// TestRunStatefulMatchesRunPrepared: the priming run must produce the same
// bag as the stateless path.
func TestRunStatefulMatchesRunPrepared(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cat := deltaCatalog(rng, 20)
	for _, sql := range []string{
		"SELECT region, sum(revenue) AS s FROM Sales GROUP BY region",
		"SELECT s.region, r.country FROM Sales AS s, Regions AS r WHERE s.region = r.name",
		"SELECT DISTINCT region FROM Sales",
		"SELECT region FROM Sales MINUS SELECT name FROM Regions",
	} {
		ex, prep := prepareDelta(t, cat, sql)
		st, err := ex.RunStateful(prep)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := ex.RunPrepared(prep)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(st.Rel, pl.Rel) {
			t.Errorf("%q: stateful run diverges from prepared run", sql)
		}
	}
}

// TestKahanCompensatedFloatSum: the incremental aggregate state keeps a
// Neumaier compensation term, so an add/remove sequence whose naive float
// sum loses low bits still lands exactly on the recomputed value. The
// sequence below is the classic catastrophic case: 1 + 1e16 - 1e16 = 0
// under naive double summation.
func TestKahanCompensatedFloatSum(t *testing.T) {
	st := newDeltaAggState(false, false)
	st.add(relation.Float(1.0))
	st.add(relation.Float(1e16))
	if err := st.remove(relation.Float(1e16)); err != nil {
		t.Fatal(err)
	}
	got := st.result("sum", 1, false)
	f, _ := got.AsFloat()
	if f != 1.0 {
		t.Fatalf("compensated sum = %v, want exactly 1", got)
	}
	// Many small magnitudes against a large one: compensation keeps the
	// running sum exact after the large value leaves.
	st2 := newDeltaAggState(false, false)
	for i := 0; i < 100; i++ {
		st2.add(relation.Float(0.125)) // exactly representable
	}
	st2.add(relation.Float(1e18))
	if err := st2.remove(relation.Float(1e18)); err != nil {
		t.Fatal(err)
	}
	f2, _ := st2.result("sum", 100, false).AsFloat()
	if f2 != 12.5 {
		t.Fatalf("compensated sum = %v, want exactly 12.5", f2)
	}
	// avg reads the compensated sum too.
	fa, _ := st2.result("avg", 100, false).AsFloat()
	if fa != 0.125 {
		t.Fatalf("compensated avg = %v, want exactly 0.125", fa)
	}
}
