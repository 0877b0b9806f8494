package exec

// Operator microbenchmarks isolating the hash pipeline and the compiled
// evaluation layer at 10k–100k rows, so executor wins are measurable outside
// the end-to-end engine benchmarks. Run:
//
//	go test ./internal/exec -bench . -benchmem
//
// PERFORMANCE.md records the before/after trajectory.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/relation"
)

// benchCatalog builds deterministic synthetic relations: "facts" with n rows
// over ~n/50 join keys and 8 group values, and a "dims" side with one row
// per key.
func benchCatalog(n int) memCatalog {
	nKeys := n / 50
	if nKeys < 1 {
		nKeys = 1
	}
	facts := relation.New("Facts", relation.NewSchema(
		relation.Col("id", relation.KindInt),
		relation.Col("key", relation.KindInt),
		relation.Col("grp", relation.KindString),
		relation.Col("val", relation.KindFloat),
	))
	groups := []string{"ga", "gb", "gc", "gd", "ge", "gf", "gg", "gh"}
	facts.Rows = make([]relation.Tuple, 0, n)
	for i := 0; i < n; i++ {
		facts.MustAppend(relation.Tuple{
			relation.Int(int64(i)),
			relation.Int(int64(i % nKeys)),
			relation.String(groups[i%len(groups)]),
			relation.Float(float64(i%997) / 7),
		})
	}
	dims := relation.New("Dims", relation.NewSchema(
		relation.Col("key", relation.KindInt),
		relation.Col("label", relation.KindString),
	))
	dims.Rows = make([]relation.Tuple, 0, nKeys)
	for k := 0; k < nKeys; k++ {
		dims.MustAppend(relation.Tuple{
			relation.Int(int64(k)),
			relation.String(fmt.Sprintf("label-%d", k%16)),
		})
	}
	return memCatalog{"facts": facts, "dims": dims}
}

func benchPrepare(b *testing.B, cat memCatalog, sql string) (*Executor, *Prepared) {
	b.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		b.Fatal(err)
	}
	ex := New(cat)
	p, err := plan.Build(q, cat)
	if err != nil {
		b.Fatal(err)
	}
	p = plan.Optimize(p, ex.Funcs)
	prep, err := Prepare(p, ex.Funcs)
	if err != nil {
		b.Fatal(err)
	}
	return ex, prep
}

func benchSizes() []int { return []int{10000, 100000} }

func runPreparedBench(b *testing.B, sql string) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			ex, prep := benchPrepare(b, benchCatalog(n), sql)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.RunPrepared(prep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashJoin probes a many-to-one equi-join with a residual filter —
// the DeVIL brushing shape.
func BenchmarkHashJoin(b *testing.B) {
	runPreparedBench(b,
		"SELECT f.id, d.label FROM Dims AS d, Facts AS f WHERE f.key = d.key AND f.val >= 0")
}

// BenchmarkAggregate probes hash aggregation with grouped sums — the
// crossfilter chart shape.
func BenchmarkAggregate(b *testing.B) {
	runPreparedBench(b,
		"SELECT grp, sum(val) AS total, count(*) AS n, min(val) AS lo FROM Facts GROUP BY grp")
}

// BenchmarkDistinct probes duplicate elimination over a low-cardinality
// projection.
func BenchmarkDistinct(b *testing.B) {
	runPreparedBench(b, "SELECT DISTINCT grp, key FROM Facts")
}

// BenchmarkFilterProject probes the compiled scalar path with no hashing:
// predicate plus arithmetic projection.
func BenchmarkFilterProject(b *testing.B) {
	runPreparedBench(b,
		"SELECT id, val * 2 + 1 AS scaled FROM Facts WHERE val >= 10 AND grp != 'ga'")
}

// BenchmarkPrepareOnce measures bind cost itself: what the engine pays once
// per view definition (and saves on every subsequent recompute).
func BenchmarkPrepareOnce(b *testing.B) {
	cat := benchCatalog(1000)
	q, err := parser.ParseQuery(
		"SELECT grp, sum(val) AS total FROM Facts WHERE val >= 10 GROUP BY grp HAVING count(*) > 2")
	if err != nil {
		b.Fatal(err)
	}
	ex := New(cat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := plan.Build(q, cat)
		if err != nil {
			b.Fatal(err)
		}
		p = plan.Optimize(p, ex.Funcs)
		if _, err := Prepare(p, ex.Funcs); err != nil {
			b.Fatal(err)
		}
	}
}

// cubeBenchDims are the four crossfilter charts' grouping columns.
var cubeBenchDims = []string{"region", "segment", "month", "weekday"}

// cubeBenchCatalog builds a Sales-shaped fact relation (7 columns, 12 month
// bins, 5×5×12×7 group values) and the selection relation the charts join.
func cubeBenchCatalog(n int) memCatalog {
	sales := relation.New("Sales", relation.NewSchema(
		relation.Col("orderId", relation.KindInt),
		relation.Col("region", relation.KindString),
		relation.Col("segment", relation.KindString),
		relation.Col("year", relation.KindInt),
		relation.Col("month", relation.KindInt),
		relation.Col("weekday", relation.KindInt),
		relation.Col("revenue", relation.KindInt),
	))
	regions := []string{"AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDEAST"}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	rng := rand.New(rand.NewSource(3))
	sales.Rows = make([]relation.Tuple, n)
	for i := range sales.Rows {
		sales.Rows[i] = relation.Tuple{
			relation.Int(int64(i)),
			relation.String(regions[rng.Intn(len(regions))]),
			relation.String(segments[rng.Intn(len(segments))]),
			relation.Int(int64(1992 + rng.Intn(7))),
			relation.Int(int64(1 + rng.Intn(12))),
			relation.Int(int64(rng.Intn(7))),
			relation.Int(int64(rng.Intn(100000))),
		}
	}
	sel := relation.New("Sel", relation.NewSchema(relation.Col("month", relation.KindInt)))
	return memCatalog{"sales": sales, "sel": sel}
}

// BenchmarkCubeTileBuild measures the first-attach tile build: the fact
// relation folded into the four charts' tiles, on one chunk and on as many
// as there are processors. make bench-smoke runs it once so the build path
// cannot rot.
func BenchmarkCubeTileBuild(b *testing.B) {
	const n = 100000
	cat := cubeBenchCatalog(n)
	var cubes []*dCube
	for _, dim := range cubeBenchDims {
		_, prep := benchPrepare(b, cat, fmt.Sprintf(
			"SELECT s.%[1]s AS grp, sum(s.revenue) AS total, count(*) AS n FROM Sales AS s, Sel AS m WHERE s.month = m.month GROUP BY s.%[1]s", dim))
		if len(prep.cubes) != 1 {
			b.Fatalf("chart %s is not on the cube path", dim)
		}
		cubes = append(cubes, prep.cubes[0])
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, dc := range cubes {
					t, _, err := primeTiles(&dc.shape, dc.fact, cat, workers)
					if err != nil {
						b.Fatal(err)
					}
					if t.factRows != n {
						b.Fatalf("folded %d rows, want %d", t.factRows, n)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*len(cubes)), "ns/row")
		})
	}
}
