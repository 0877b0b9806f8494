package experiments

// The data-cube workload: the join-based crossfilter with every chart
// cube-eligible (COUNT/SUM aggregates over the Sales ⋈ selected_months
// equi-join, grouped by a fact-side dimension), so a brush move is answered
// from per-chart index tiles in O(bins) instead of re-streaming the changed
// months' joined rows. The cube parity walls, the server's cube tests and
// BenchmarkObsOn/Off drive it.
//
// The stream is repeated short drags rather than one long extending brush:
// the compound event table accumulates max(x+dx) over a drag, so a single
// drag's selection can only grow and saturates at 12 months — after which
// moves are no-ops that measure nothing. Seven events per drag, each
// changing the selection, is the honest steady state.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/events"
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

// NewCubeEngine defines the cube crossfilter's views, then loads n rows into
// them: that is when each chart's tiles are built.
func NewCubeEngine(n int, seed int64, cfg core.Config) (*core.Engine, error) {
	if cfg.Width == 0 {
		cfg.Width, cfg.Height = 320, 300
	}
	e := core.New(cfg)
	if err := e.LoadProgram(BuildCubeProgram()); err != nil {
		return nil, err
	}
	if err := e.InsertRows("Sales", IVMSalesTuples(n, seed)); err != nil {
		return nil, err
	}
	e.Commit()
	return e, nil
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
