package server_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/relation"
	"repro/internal/server"
)

// TestSiblingFinishFailureServe is the serve-tier case of a fanned-out level
// whose first view fails its finish after its siblings applied: a shared
// write of a zero revenue makes the session's FILT_bad divide by zero, so
// the fan-out leaves its siblings' pipelines reset and the server's resync
// fails too. Once a drag deselects that month, the session must match a
// full-recompute engine again.
func TestSiblingFinishFailureServe(t *testing.T) {
	const bad = `
FILT_bad = SELECT s.orderId AS id, 1000 / s.revenue AS inv
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month;
`
	at := strings.Index(siblingProgram, "FILT_region =")
	program := siblingProgram[:at] + bad + siblingProgram[at:]
	sales := siblingSales(1500)
	srv, err := server.New(server.Config{}, program)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", sales); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.New(core.Config{RecomputeAll: true})
	if err := oracle.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	if err := oracle.InsertRows("Sales", sales); err != nil {
		t.Fatal(err)
	}
	c := &siblingClient{sess: sess, oracle: oracle}
	if err := c.check("load"); err != nil {
		t.Fatal(err)
	}

	zero := []relation.Tuple{{relation.Int(9999), relation.String("ASIA"), relation.String("BUILDING"),
		relation.Int(12), relation.Int(3), relation.Int(0)}}
	for name, insert := range map[string]func() error{
		"server": func() error { return srv.InsertRows("Sales", zero) },
		"oracle": func() error { return oracle.InsertRows("Sales", zero) },
	} {
		if err := insert(); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%s insert of a zero revenue: error %v, want division by zero", name, err)
		}
	}
	drag := events.Stream{
		events.Mouse(events.MouseDown, 1000, 35, 150),
		events.Mouse(events.MouseMove, 1001, 60, 150),
		events.Mouse(events.MouseMove, 1002, 85, 150),
		events.Mouse(events.MouseUp, 1010, 85, 150),
	}
	for _, ev := range drag {
		if _, err := sess.Feed(ev); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.FeedEvent(ev); err != nil {
			t.Fatal(err)
		}
		if err := c.check("after the failed finish"); err != nil {
			t.Fatal(err)
		}
	}
}
