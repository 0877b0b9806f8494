package experiments

// Cube-vs-oracle parity: the property wall of ISSUE 8. The cube crossfilter
// replays randomized brush streams — interleaved with base-table writes,
// undo, and versioned reads — through two engines at once: the default one
// (index tiles) and a full-recompute oracle. After every event the entire
// database state must agree across both: every relation as a bag, the
// committed version count, and the rendered pixels. Guard tests then pin
// down *which* path served the events, so the wall cannot silently pass
// with every chart fallen back, and that ineligible aggregates fall back
// (correctly, and counted exactly once per view bind).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func TestCubeVsOracleParity(t *testing.T) {
	mk := func(cfg core.Config) (*core.Engine, error) {
		// 150 rows: small enough for per-event recompute, large enough that
		// every month bin and every group is populated.
		return NewCubeEngine(150, 3, cfg)
	}
	cube, err := mk(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := mk(core.Config{RecomputeAll: true})
	if err != nil {
		t.Fatal(err)
	}
	engines := []*core.Engine{cube, full}
	checkParity := func(step string) {
		assertEngineParity(t, step+" [tiles vs recompute]", cube, full)
	}
	checkParity("after load")
	mutate := func(round int) error {
		for _, e := range engines {
			var err error
			if round%2 == 0 {
				// Writer insert: a fact delta the tiles must absorb.
				err = e.Exec(fmt.Sprintf(
					"INSERT INTO Sales VALUES (%d, 'EUROPE', 'BUILDING', 1996, %d, 3, 500)",
					9000+round, 1+round%12))
			} else {
				err = e.Exec(fmt.Sprintf("DELETE FROM Sales WHERE month = %d AND revenue < 300", 1+round%12))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(17))
	stream := randomDrags(rng, 6)
	round, commits := 0, 0
	for i, ev := range stream {
		tc, err := cube.FeedEvent(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		to, err := full.FeedEvent(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if tc != to {
			t.Fatalf("event %d: txn summaries diverge: %+v vs %+v", i, tc, to)
		}
		checkParity(fmt.Sprintf("after event %d (%s)", i, ev.Type))
		if tc.Committed {
			// Between interactions, interleave base-table writes and the
			// occasional undo (the store-level version restore) so tile
			// maintenance under fact deltas and state restoration are covered.
			round++
			if err := mutate(round); err != nil {
				t.Fatal(err)
			}
			checkParity(fmt.Sprintf("after mutation %d", round))
			commits++
			if commits == 3 {
				for _, e := range engines {
					if err := e.Undo(); err != nil {
						t.Fatal(err)
					}
				}
				checkParity("after undo")
			}
		}
	}
	// Versioned reads reconstruct past states through the delta log; the
	// tiled engine's history must match the oracle's at every offset.
	for off := 1; off <= 3; off++ {
		ref := relation.VersionRef{Kind: relation.VersionVNow, Offset: off}
		for _, name := range []string{"FILT_region", "FILT_month", "Sales"} {
			rc, err := cube.RelationAt(name, ref)
			if err != nil {
				t.Fatal(err)
			}
			ro, err := full.RelationAt(name, ref)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(rc, ro) {
				t.Fatalf("%s@vnow-%d diverges:\ntiles:\n%s\noracle:\n%s", name, off, rc, ro)
			}
		}
	}
	// The wall proves nothing if the charts never used the tiles.
	if s := cube.StatsSnapshot().Cube; s.Hits == 0 || s.Fallbacks != 0 {
		t.Fatalf("cube path not exercised: %+v", s)
	}
}

// TestCubePathActuallyUsed guards against the parity wall silently passing
// with every chart on the ordinary pipeline: brushing the cube crossfilter
// must build one tile set per chart and answer every move from them.
func TestCubePathActuallyUsed(t *testing.T) {
	e, err := NewCubeEngine(200, 3, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedStream(CubeDragStream(3)); err != nil {
		t.Fatal(err)
	}
	s := e.StatsSnapshot().Cube
	if s.Builds < int64(len(IVMDims)) {
		t.Fatalf("want ≥%d tile builds (one per chart), got %d", len(IVMDims), s.Builds)
	}
	if s.Hits == 0 || s.BinsAnswered < s.Hits {
		t.Fatalf("brush moves should be answered from tiles: %+v", s)
	}
	if s.Fallbacks != 0 {
		t.Fatalf("no chart of the cube program should fall back: %+v", s)
	}
	if s.TileBytes == 0 {
		t.Fatal("resident tiles should report non-zero memory")
	}
}

// TestCubeFallbackCorrectness: AVG decomposes into SUM/COUNT and stays on
// the tile path; MIN/MAX and subquery-parameterized charts must fall back —
// with correct results, and with Stats.Cube.Fallbacks counting each
// ineligible view exactly once per bind, not once per event.
func TestCubeFallbackCorrectness(t *testing.T) {
	prog := crossfilterPrelude + `
CHART_avg = SELECT s.region AS grp, avg(s.revenue) AS a, count(*) AS n
  FROM Sales AS s, selected_months AS m
  WHERE s.month = m.month
  GROUP BY s.region;
CHART_minmax = SELECT s.region AS grp, min(s.revenue) AS lo, max(s.revenue) AS hi
  FROM Sales AS s, selected_months AS m
  WHERE s.month = m.month
  GROUP BY s.region;
CHART_sub = SELECT s.region AS grp, count(*) AS n
  FROM Sales AS s, selected_months AS m
  WHERE s.month = m.month AND s.revenue >= (SELECT min(revenue) FROM Sales)
  GROUP BY s.region;
`
	mk := func(cfg core.Config) *core.Engine {
		e := core.New(cfg)
		if err := e.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		if err := LoadIVMSales(e, 300, 3); err != nil {
			t.Fatal(err)
		}
		e.Commit()
		return e
	}
	e, oracle := mk(core.Config{}), mk(core.Config{RecomputeAll: true})
	charts := []string{"CHART_avg", "CHART_minmax", "CHART_sub"}
	for _, ev := range CubeDragStream(3) {
		if _, err := e.FeedEvent(ev); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.FeedEvent(ev); err != nil {
			t.Fatal(err)
		}
		for _, name := range charts {
			ir, err := e.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := oracle.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(ir, fr) {
				t.Fatalf("%s diverges from recompute:\n%s\nvs\n%s", name, ir, fr)
			}
		}
	}
	s := e.StatsSnapshot().Cube
	if s.Hits == 0 {
		t.Fatalf("CHART_avg should brush on the tile path (AVG = SUM/COUNT): %+v", s)
	}
	// Exactly the two ineligible charts, counted at bind time.
	if s.Fallbacks != 2 {
		t.Fatalf("want exactly 2 cube fallbacks (min/max + subquery-parameterized), got %d", s.Fallbacks)
	}
	// More brushing re-uses the bound plans: the count must not grow.
	if _, err := e.FeedStream(CubeDragStream(4)); err != nil {
		t.Fatal(err)
	}
	if got := e.StatsSnapshot().Cube.Fallbacks; got != 2 {
		t.Fatalf("fallbacks recounted per event: %d after more brushing, want 2", got)
	}
}
