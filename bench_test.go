package dvms_test

// Benchmarks regenerating every table and figure of the paper (DESIGN.md §2
// maps each to its experiment). Run:
//
//	go test -bench=. -benchmem
//
// Absolute timings measure this Go reproduction, not the authors' testbed;
// EXPERIMENTS.md records the shape comparisons against the paper.

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/precision"
	"repro/internal/relation"
	"repro/internal/stream"
	"repro/internal/workload"
)

// BenchmarkTable1EventRecognition measures the event recognizer on the
// Table 1 drag pattern: compound-event extraction throughput.
func BenchmarkTable1EventRecognition(b *testing.B) {
	eng, err := experiments.NewBrushingEngine(5, 1, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	stream := events.Stream{
		events.Mouse(events.MouseDown, 0, 5, 15),
		events.Mouse(events.MouseMove, 1, 6, 17),
		events.Mouse(events.MouseMove, 40, 10, 10),
		events.Mouse(events.MouseUp, 41, 10, 10),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.FeedStream(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Crossfilter measures one crossfilter interaction (Figure 1):
// a year-range drag updating five linked group-by charts.
func BenchmarkFig1Crossfilter(b *testing.B) {
	eng, err := experiments.NewCrossfilterEngine(2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.FeedStream(experiments.YearSelectionDrag()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2LinkedBrush measures one brushing interaction over the
// DeVIL 1-3 program (join + IN formulation).
func BenchmarkFig2LinkedBrush(b *testing.B) {
	eng, err := experiments.NewBrushingEngine(200, 7, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.FeedStream(experiments.BrushDrag(int64(i*100), 100, 50, 250, 200)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2TraceVsJoin compares the DeVIL 4 provenance formulation
// against DeVIL 3 on the same interaction (E4).
func BenchmarkFig2TraceVsJoin(b *testing.B) {
	b.Run("join", func(b *testing.B) {
		eng, err := experiments.NewBrushingEngine(200, 7, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.FeedStream(experiments.BrushDrag(int64(i*100), 100, 50, 250, 200)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace", func(b *testing.B) {
		eng, err := experiments.NewTraceEngine(200, 7, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.FeedStream(experiments.BrushDrag(int64(i*100), 100, 50, 250, 200)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5PolicySim measures one simulated participant per policy
// under the 2.5 s delay condition (Figure 5's expensive cell).
func BenchmarkFig5PolicySim(b *testing.B) {
	for _, pol := range cc.Policies {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cc.Simulate(cc.Params{Policy: pol, MeanDelayMs: 2500, Seed: int64(i)})
			}
		})
	}
}

// BenchmarkFig5FullStudy measures the complete Figure 5 study grid.
func BenchmarkFig5FullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cc.RunStudy(cc.StudyParams{Participants: 40, Seed: int64(i)})
	}
}

// BenchmarkFig6TransformationGraph measures mining the transformation graph
// from a 10k-query SDSS-style log.
func BenchmarkFig6TransformationGraph(b *testing.B) {
	log := workload.SDSSLog(10000, 7)
	sessions := experiments.SessionsOf(log)
	rules := precision.SDSSRules()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := precision.BuildGraphFromSessions(sessions, rules); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7InterfaceSynthesis measures the widget-assignment knapsack.
func BenchmarkFig7InterfaceSynthesis(b *testing.B) {
	log := workload.SDSSLog(10000, 7)
	g, err := precision.BuildGraphFromSessions(experiments.SessionsOf(log), precision.SDSSRules())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		precision.Synthesize(g, precision.SynthesisParams{MaxVis: 20, Penalty: 10})
	}
}

// BenchmarkIntentModel measures §3.3's widget predictor at the 200 ms
// horizon.
func BenchmarkIntentModel(b *testing.B) {
	widgets := workload.WidgetGrid(4, 3, 800, 600)
	traces := workload.MouseTraces(100, widgets, 20, 10, 7)
	m := stream.NewIntentModel(widgets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate(traces)
	}
}

// BenchmarkProgressiveStream measures a full §3.3 streaming session under
// the greedy-utility scheduler.
func BenchmarkProgressiveStream(b *testing.B) {
	widgets := workload.WidgetGrid(4, 3, 800, 600)
	tiles, err := stream.SyntheticTiles(len(widgets), 32, 7)
	if err != nil {
		b.Fatal(err)
	}
	traces := workload.MouseTraces(20, widgets, 20, 10, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.RunSession(stream.SessionParams{
			Widgets: widgets, Tiles: tiles, Traces: traces,
			Sched: &stream.GreedyUtility{}, BandwidthPerTick: 8, RenderableUtility: 0.99,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndInteraction measures event→marks→pixels latency (E10)
// as product count grows.
func BenchmarkEndToEndInteraction(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run(benchSize(n), func(b *testing.B) {
			eng, err := experiments.NewBrushingEngine(n, 7, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.FeedStream(experiments.BrushDrag(int64(i*100), 100, 50, 250, 200)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIncremental compares dirty-set maintenance vs full
// recomputation (A1).
func BenchmarkAblationIncremental(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "dirty-set"
		if full {
			name = "recompute-all"
		}
		b.Run(name, func(b *testing.B) {
			eng := core.New(core.Config{RecomputeAll: full})
			if err := eng.LoadProgram(experiments.BuildCrossfilterProgram(1000, 7)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.FeedStream(experiments.YearSelectionDrag()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProvenance compares lazy vs eager lineage (A2).
func BenchmarkAblationProvenance(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := experiments.NewTraceEngine(150, 7, core.Config{EagerProvenance: eager})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.FeedStream(experiments.BrushDrag(int64(i*100), 100, 50, 250, 200)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScheduler compares the three §3.3 schedulers (A3).
func BenchmarkAblationScheduler(b *testing.B) {
	widgets := workload.WidgetGrid(4, 3, 800, 600)
	tiles, err := stream.SyntheticTiles(len(widgets), 32, 7)
	if err != nil {
		b.Fatal(err)
	}
	traces := workload.MouseTraces(20, widgets, 20, 10, 7)
	for _, s := range []stream.Scheduler{&stream.GreedyUtility{}, stream.RoundRobin{}, stream.NoPrefetch{}} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stream.RunSession(stream.SessionParams{
					Widgets: widgets, Tiles: tiles, Traces: traces, Sched: s,
					BandwidthPerTick: 8, RenderableUtility: 0.99,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIVMBrush measures crossfilter brushing through the
// delta-propagating dataflow vs the RecomputeAll baseline (ISSUE 2's
// end-to-end interaction benchmark). Each op is one full drag: the brush
// opens over month 1, then extends one month (~1/12 of the data) per move
// event across five linked charts, then releases.
func BenchmarkIVMBrush(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, full := range []bool{false, true} {
			name := fmt.Sprintf("n%d/incremental", n)
			if full {
				name = fmt.Sprintf("n%d/recompute-all", n)
			}
			b.Run(name, func(b *testing.B) {
				eng, err := experiments.NewIVMEngine(n, 7, core.Config{RecomputeAll: full})
				if err != nil {
					b.Fatal(err)
				}
				drag := experiments.IVMBrushStream(6) // 10 events per op
				if _, err := eng.FeedStream(drag); err != nil {
					b.Fatal(err) // warm-up primes the pipelines
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.FeedStream(drag); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTopKBrush measures the top-k crossfilter (ORDER BY+LIMIT views
// maintained by order-statistic trees) against the RecomputeAll baseline.
// Two steady states per size: "brush" ops are one full drag (each move
// shifts ~1/12 of the data through the filtered leaderboard's join);
// "tick" ops are one single-row insert straddling the k-th boundary, the
// O(log n + k) case where incremental cost should be flat in n.
func BenchmarkTopKBrush(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, full := range []bool{false, true} {
			arm := "incremental"
			if full {
				arm = "recompute-all"
			}
			b.Run(fmt.Sprintf("n%d/brush/%s", n, arm), func(b *testing.B) {
				eng, err := experiments.NewTopKEngine(n, 7, core.Config{RecomputeAll: full})
				if err != nil {
					b.Fatal(err)
				}
				drag := experiments.IVMBrushStream(6) // 10 events per op
				if _, err := eng.FeedStream(drag); err != nil {
					b.Fatal(err) // warm-up primes the pipelines
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.FeedStream(drag); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("n%d/tick/%s", n, arm), func(b *testing.B) {
				eng, err := experiments.NewTopKEngine(n, 7, core.Config{RecomputeAll: full})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.FeedStream(experiments.IVMBrushStream(2)); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.InsertRows("Sales",
						[]relation.Tuple{experiments.TopKTickRow(n, i)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQueryEngine measures the relational substrate in isolation:
// parse+plan+optimize+execute of the crossfilter aggregate.
func BenchmarkQueryEngine(b *testing.B) {
	eng, err := experiments.NewCrossfilterEngine(2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	q, err := parser.ParseQuery("SELECT region, sum(revenue) AS total FROM Sales WHERE year >= 1997 GROUP BY region")
	if err != nil {
		b.Fatal(err)
	}
	ex := exec.New(eng.Store())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.RunQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanOptimize measures plan construction and the rule-based
// optimizer alone.
func BenchmarkPlanOptimize(b *testing.B) {
	eng, err := experiments.NewCrossfilterEngine(500, 7)
	if err != nil {
		b.Fatal(err)
	}
	q, err := parser.ParseQuery(
		"SELECT a.region, sum(a.revenue) AS t FROM Sales AS a, Sales AS b WHERE a.orderId = b.orderId AND a.year >= 1997 AND b.month = 12 GROUP BY a.region")
	if err != nil {
		b.Fatal(err)
	}
	ex := exec.New(eng.Store())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := plan.Build(q, eng.Store())
		if err != nil {
			b.Fatal(err)
		}
		plan.Optimize(p, ex.Funcs)
	}
}

func benchSize(n int) string {
	switch {
	case n >= 1000:
		return "n1000+"
	case n >= 800:
		return "n800"
	case n >= 200:
		return "n200"
	default:
		return "n50"
	}
}
