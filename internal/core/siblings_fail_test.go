package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/events"
)

// TestSiblingFinishFailureReprimes drives a fanned-out level whose first
// view fails its finish after every sibling applied: FILT_bad divides by a
// revenue that an INSERT sets to zero, so its apply and its
// fallback recompute both fail. The siblings after it must drop their
// pipeline state (resetSiblings), re-prime on the next event, and match a
// full-recompute engine from then on.
func TestSiblingFinishFailureReprimes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const bad = `
FILT_bad = SELECT s.orderId AS id, 1000 / s.revenue AS inv
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month;
`
	// FILT_bad is defined before the charts, so it leads their level.
	src := siblingSource(2000)
	at := strings.Index(src, "FILT_region =")
	src = src[:at] + bad + src[at:]
	e := loadSiblings(t, src, Config{})
	oracle := loadSiblings(t, src, Config{RecomputeAll: true})
	level := e.levels[1]
	if len(level) != 5 || level[0].name != "FILT_bad" {
		t.Fatalf("chart level = %v, want FILT_bad and the four charts", viewNames(level))
	}

	// A zero revenue in month 12, which every chart selects before any
	// drag: every view of the level is dirty and streamed, FILT_bad fails.
	const insert = "INSERT INTO Sales VALUES (9999, 'ASIA', 'BUILDING', 12, 3, 0)"
	for _, x := range []*Engine{e, oracle} {
		if err := x.Exec(insert); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("insert of a zero revenue: error %v, want division by zero", err)
		}
	}
	for _, v := range level {
		if v.prepared.Primed() {
			t.Fatalf("%s kept its pipeline state after FILT_bad failed its finish", v.name)
		}
	}

	// A drag over months 1-3 leaves month 12 unselected: every view of
	// the level recomputes and matches the oracle, then streams again.
	drag := events.Stream{
		events.Mouse(events.MouseDown, 1000, 35, 150),
		events.Mouse(events.MouseMove, 1001, 60, 150),
		events.Mouse(events.MouseMove, 1002, 85, 150),
		events.Mouse(events.MouseUp, 1010, 85, 150),
	}
	for i, ev := range drag {
		for _, x := range []*Engine{e, oracle} {
			if _, err := x.FeedEvent(ev); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
		assertSiblingParity(t, "after the failed finish", e, oracle)
	}
	for _, v := range level {
		if !v.prepared.Primed() {
			t.Fatalf("%s did not re-prime", v.name)
		}
	}
}

func viewNames(vs []*view) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.name
	}
	return out
}
