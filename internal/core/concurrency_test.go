package core

// Satellite regressions for the engine's concurrency surface: Stats reads
// must be tear-free against a concurrently driven engine (run under -race),
// and bare LIMIT views must warn once about their permanent full-recompute
// fallback while still producing exact results.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/events"
	"repro/internal/relation"
)

const statsRaceProgram = `
CREATE TABLE T (x int, y int);
INSERT INTO T VALUES (1, 10), (2, 20), (3, 30);
C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);
TOTALS = SELECT x, sum(y) AS total FROM T GROUP BY x;
`

// TestStatsSnapshotRace hammers one engine from a feeder goroutine while
// others snapshot stats, read relations and insert rows. The engine lock
// must make every combination tear-free; the test is only meaningful under
// -race (it asserts liveness otherwise).
func TestStatsSnapshotRace(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(statsRaceProgram); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			drag := events.Drag(int64(i*10), 5, 5, 50, 50, 2)
			for _, ev := range drag {
				if _, err := e.FeedEvent(ev); err != nil {
					t.Errorf("feed: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			st := e.StatsSnapshot()
			if st.EventsFed < 0 {
				t.Errorf("torn stats: %+v", st)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := e.Relation("TOTALS"); err != nil {
				t.Errorf("relation: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			err := e.InsertRows("T", []relation.Tuple{
				{relation.Int(int64(i)), relation.Int(int64(i) * 7)},
			})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	// Feed once more and the snapshot must observe it (sanity that counting
	// still works).
	if _, err := e.FeedEvent(events.Mouse(events.Hover, 1<<30, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if e.StatsSnapshot().EventsFed == 0 {
		t.Fatal("stats lost the final event")
	}
}

// TestBareLimitIncremental pins the bare-LIMIT contract: the view is
// delta-safe (its prefix is pinned to the deterministic full-tuple order),
// definition emits no warning, changes propagate without full-recompute
// fallbacks, and the contents are exactly the first k rows of the sorted
// bag at every step.
func TestBareLimitIncremental(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(`
CREATE TABLE T (x int);
INSERT INTO T VALUES (3), (1), (2);
HEAD = SELECT x FROM T LIMIT 2;
`); err != nil {
		t.Fatal(err)
	}
	for _, w := range e.Warnings() {
		if strings.Contains(w, "LIMIT") {
			t.Fatalf("bare LIMIT should not warn anymore: %q", w)
		}
	}
	wantHead := func(want ...int64) {
		t.Helper()
		head, err := e.Relation("HEAD")
		if err != nil {
			t.Fatal(err)
		}
		if len(head.Rows) != len(want) {
			t.Fatalf("HEAD has %d rows, want %d", len(head.Rows), len(want))
		}
		for i, w := range want {
			got, _ := head.Rows[i][0].AsInt()
			if got != w {
				t.Fatalf("HEAD row %d = %d, want %d (full: %v)", i, got, w, head.Rows)
			}
		}
	}
	wantHead(1, 2) // first 2 of sorted bag {1,2,3}

	// Changes propagate incrementally: no full-recompute fallback, and the
	// prefix tracks the sorted bag exactly.
	before := e.StatsSnapshot().FullFallbacks
	if err := e.InsertRows("T", []relation.Tuple{{relation.Int(0)}}); err != nil {
		t.Fatal(err)
	}
	if got := e.StatsSnapshot().FullFallbacks; got != before {
		t.Fatalf("bare LIMIT should apply deltas: fallbacks %d -> %d", before, got)
	}
	wantHead(0, 1) // sorted bag {0,1,2,3}

	if err := e.Exec("DELETE FROM T WHERE x = 1"); err != nil {
		t.Fatal(err)
	}
	wantHead(0, 2) // sorted bag {0,2,3}
}
