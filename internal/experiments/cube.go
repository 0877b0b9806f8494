package experiments

// The data-cube workload: the join-based crossfilter with every chart
// cube-eligible (COUNT/SUM aggregates over the Sales ⋈ selected_months
// equi-join, grouped by a fact-side dimension), so a brush move is answered
// from per-chart index tiles in O(bins) instead of re-streaming the changed
// months' joined rows. This is the benchmark behind the ISSUE 8 acceptance
// criterion: steady brush ≤ 100 µs/event at 1M rows, flat (≤ 2x drift)
// across 10k/100k/1M.
//
// The stream is repeated short drags rather than one long extending brush:
// the compound event table accumulates max(x+dx) over a drag, so a single
// drag's selection can only grow and saturates at 12 months — after which
// moves are no-ops that measure nothing. Seven events per drag, each
// changing the selection, is the honest steady state.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/relation"
)

// BuildCubeProgram returns the DeVIL program of the cube crossfilter: four
// grouped charts over the brushed month selection plus a rendered bar chart
// joining the region chart against a pixel axis. Unlike the IVM program it
// has no ranking self-joins — those have a non-equi residual and are a
// ranking feature, not a brush-move workload.
func BuildCubeProgram() string {
	var b strings.Builder
	b.WriteString(crossfilterPrelude)
	for _, dim := range IVMDims {
		fmt.Fprintf(&b, `
FILT_%[1]s = SELECT s.%[1]s AS grp, sum(s.revenue) AS total, count(*) AS n
  FROM Sales AS s, selected_months AS m
  WHERE s.month = m.month
  GROUP BY s.%[1]s;
`, dim)
	}
	b.WriteString(`
CREATE TABLE RegionAxis (region string, x int);
INSERT INTO RegionAxis VALUES ('AMERICA', 10), ('ASIA', 80), ('EUROPE', 150), ('AFRICA', 220), ('MIDEAST', 290);
BARS = SELECT ra.x AS x, 280 - f.total / 3000 AS y, 24 AS width,
       f.total / 3000 AS height, 'green' AS fill
  FROM FILT_region AS f, RegionAxis AS ra
  WHERE f.grp = ra.region;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`)
	return b.String()
}

// NewCubeEngine loads the cube crossfilter over n rows.
func NewCubeEngine(n int, seed int64, cfg core.Config) (*core.Engine, error) {
	e, _, err := loadCubeEngine(IVMSalesTuples(n, seed), cfg)
	return e, err
}

// loadCubeEngine defines the cube crossfilter's views, then loads the rows
// into them, and reports how long the load took: that is when a chart's
// tiles (or, with DisableCube, its join index) are built.
func loadCubeEngine(rows []relation.Tuple, cfg core.Config) (*core.Engine, time.Duration, error) {
	if cfg.Width == 0 {
		cfg.Width, cfg.Height = 320, 300
	}
	e := core.New(cfg)
	if err := e.LoadProgram(BuildCubeProgram()); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := e.InsertRows("Sales", rows); err != nil {
		return nil, 0, err
	}
	e.Commit()
	return e, time.Since(start), nil
}

// CubeDragStream returns `drags` repeated short brushes over the month axis:
// down inside month 1, five moves each extending the selection by one month,
// release. Every event changes the selection, so per-event cost measures
// real brush-move work, not empty-delta skips.
func CubeDragStream(drags int) events.Stream {
	var s events.Stream
	t := int64(2)
	for d := 0; d < drags; d++ {
		s = append(s, events.Mouse(events.MouseDown, t, 45, 45))
		t++
		for k := 1; k <= 5; k++ {
			s = append(s, events.Mouse(events.MouseMove, t, 45+int64(20*k), 45))
			t++
		}
		s = append(s, events.Mouse(events.MouseUp, t, 145, 45))
		t++
	}
	return s
}

// CubeScaling measures steady-state brush latency per event with the cube
// path against the same program on the ordinary delta pipeline
// (Config.DisableCube), at each base size. Both arms are warmed first and
// measured after a forced GC, so a background collection of the loaded heap
// does not land in the timing window. It reports per-size latency, the
// flatness of the cube arm across sizes, tile memory, each arm's build time
// (loading the rows into the defined views: tiles on one arm, join indexes
// on the other), and the number of events after which the cube arm's build
// and first drag have cost less than the pipeline's.
func CubeScaling(sizes []int, drags int, seed int64) (Result, error) {
	var b strings.Builder
	b.WriteString("Data cubes — per-event brush latency, index tiles vs delta pipeline\n")
	fmt.Fprintf(&b, "(cube crossfilter, %d tiled charts, repeated %d-event drags)\n\n", len(IVMDims), len(CubeDragStream(1)))
	stats := map[string]int64{}
	var flatMin, flatMax float64
	for _, n := range sizes {
		var steadyUs, coldUs, buildUs [2]float64 // [cube, delta-pipeline]
		var tileBytes, tiles, hits, bins int64
		rows := IVMSalesTuples(n, seed)
		for arm, noCube := range []bool{false, true} {
			runtime.GC() // the other arm's heap, not this arm's build
			e, build, err := loadCubeEngine(rows, core.Config{DisableCube: noCube})
			if err != nil {
				return Result{}, err
			}
			buildUs[arm] = float64(build.Microseconds())
			// Cold pass: the first drag, which (cube arm) builds the prefix
			// arrays. Build plus cold is an arm's upfront cost.
			cold := CubeDragStream(1)
			start := time.Now()
			if _, err := e.FeedStream(cold); err != nil {
				return Result{}, err
			}
			coldUs[arm] = float64(time.Since(start).Microseconds())
			// Steady state: the baseline arm re-streams the brushed months'
			// joined rows per event, so it gets a small event budget at
			// large n; the cube arm is cheap enough to repeat for stable
			// numbers.
			steadyDrags, reps := drags, 6
			if noCube {
				steadyDrags, reps = min(drags, 3), 2
			}
			steady := CubeDragStream(steadyDrags)
			if _, err := e.FeedStream(steady); err != nil { // warm
				return Result{}, err
			}
			e.ResetStats()
			runtime.GC()
			start = time.Now()
			for r := 0; r < reps; r++ {
				if _, err := e.FeedStream(steady); err != nil {
					return Result{}, err
				}
			}
			steadyUs[arm] = float64(time.Since(start).Microseconds()) / float64(reps*len(steady))
			s := e.StatsSnapshot()
			if noCube {
				if s.Cube.Hits != 0 {
					return Result{}, fmt.Errorf("baseline arm answered %d brush moves from tiles", s.Cube.Hits)
				}
			} else {
				// Guard: the measurement is meaningless if the charts fell
				// back to the ordinary pipeline.
				if s.Cube.Hits == 0 || s.Cube.Fallbacks != 0 {
					return Result{}, fmt.Errorf("cube arm not engaged: %+v", s.Cube)
				}
				tileBytes, hits, bins = s.Cube.TileBytes, s.Cube.Hits, s.Cube.BinsAnswered
				tiles = int64(len(IVMDims))
			}
		}
		savings := steadyUs[1] - steadyUs[0]
		breakeven := int64(0)
		if extra := buildUs[0] + coldUs[0] - buildUs[1] - coldUs[1]; extra > 0 && savings > 0 {
			breakeven = int64(extra/savings) + 1
		}
		fmt.Fprintf(&b, "%8d rows: cube %7.1f µs/event   delta pipeline %10.1f µs/event   speedup %6.1fx   build %.1f ms vs %.1f ms   break-even %d events   tiles %.1f KB (%d charts)\n",
			n, steadyUs[0], steadyUs[1], steadyUs[1]/steadyUs[0], buildUs[0]/1e3, buildUs[1]/1e3, breakeven, float64(tileBytes)/1024, tiles)
		stats[fmt.Sprintf("n%d_cube_us_per_event", n)] = int64(steadyUs[0])
		stats[fmt.Sprintf("n%d_delta_us_per_event", n)] = int64(steadyUs[1])
		stats[fmt.Sprintf("n%d_speedup_x10", n)] = int64(steadyUs[1] / steadyUs[0] * 10)
		stats[fmt.Sprintf("n%d_breakeven_events", n)] = breakeven
		stats[fmt.Sprintf("n%d_build_ms", n)] = int64(buildUs[0] / 1e3)
		stats[fmt.Sprintf("n%d_delta_build_ms", n)] = int64(buildUs[1] / 1e3)
		stats[fmt.Sprintf("n%d_tile_bytes", n)] = tileBytes
		stats[fmt.Sprintf("n%d_tile_bytes_per_chart", n)] = tileBytes / tiles
		stats[fmt.Sprintf("n%d_cube_hits", n)] = hits
		stats[fmt.Sprintf("n%d_bins_answered", n)] = bins
		if flatMin == 0 || steadyUs[0] < flatMin {
			flatMin = steadyUs[0]
		}
		if steadyUs[0] > flatMax {
			flatMax = steadyUs[0]
		}
	}
	if flatMin > 0 {
		stats["flatness_x100"] = int64(flatMax / flatMin * 100)
		fmt.Fprintf(&b, "\ncube-arm flatness across sizes: %.2fx (max/min µs per event)\n", flatMax/flatMin)
	}
	b.WriteString("\nEach brush move rescales per-chart (month-bin × group) tiles — two\nprefix-sum subtractions per output group — so per-event cost is O(bins),\nindependent of the data size. The delta pipeline instead re-streams every\njoined row of the changed months: O(rows/12) per event. Tiles are\nmaintained by fact-side deltas (inserts, undo), never invalidated.\n")
	return Result{ID: "cube", Title: "Data-cube index tiles (per-chart O(bins) brushing)", Output: b.String(), Stats: stats}, nil
}
