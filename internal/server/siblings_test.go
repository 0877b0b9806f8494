package server_test

// Serve-tier wall for the sibling-view fan-out: four streamed charts whose
// join build sides live in the server's shared-state group, driven by two
// concurrent sessions, through shared writes and across a durable restart
// and resume, must match a full-recompute engine after every event. Under -race this is the check
// that the fanned-out applies read shared states safely.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// siblingProgram has brush_delta's shape: max() keeps all four FILT_* charts
// off the cube tiles, so each brush move streams through four fused
// join→aggregate pipelines of one dependency level.
const siblingProgram = `
CREATE TABLE Sales (orderId int, region string, segment string, month int, weekday int, revenue int);
CREATE TABLE MonthAxis (month int, x int);
INSERT INTO MonthAxis VALUES
  (1, 40), (2, 60), (3, 80), (4, 100), (5, 120), (6, 140),
  (7, 160), (8, 180), (9, 200), (10, 220), (11, 240), (12, 260);
C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);
selected_months =
  SELECT ma.month AS month FROM MonthAxis AS ma
  WHERE (SELECT count(*) FROM C) = 0
     OR (ma.x >= (SELECT min(x) FROM C) AND ma.x <= (SELECT max(x + dx) FROM C));
FILT_region = SELECT s.region AS grp, sum(s.revenue) AS total, count(*) AS n, max(s.revenue) AS peak
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.region;
FILT_segment = SELECT s.segment AS grp, sum(s.revenue) AS total, count(*) AS n, max(s.revenue) AS peak
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.segment;
FILT_month = SELECT s.month AS grp, sum(s.revenue) AS total, count(*) AS n, max(s.revenue) AS peak
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.month;
FILT_weekday = SELECT s.weekday AS grp, sum(s.revenue) AS total, count(*) AS n, max(s.revenue) AS peak
  FROM Sales AS s, selected_months AS m WHERE s.month = m.month GROUP BY s.weekday;
BARS = SELECT grp * 20 AS x, 280 - total / 3000 AS y, 16 AS width, total / 3000 AS height, 'green' AS fill
  FROM FILT_month;
P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');
`

var siblingViews = []string{"selected_months", "FILT_region", "FILT_segment", "FILT_month", "FILT_weekday", "BARS"}

func siblingSales(n int) []relation.Tuple {
	regions := []string{"AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDEAST"}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	rng := rand.New(rand.NewSource(3))
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(int64(i)), relation.String(regions[rng.Intn(len(regions))]),
			relation.String(segments[rng.Intn(len(segments))]), relation.Int(int64(1 + rng.Intn(12))),
			relation.Int(int64(rng.Intn(7))), relation.Int(int64(1 + rng.Intn(1000)))}
	}
	return rows
}

// siblingDrag is one seeded horizontal drag across the month axis.
func siblingDrag(rng *rand.Rand, t0 int64) events.Stream {
	x := int64(30 + rng.Intn(200))
	st := events.Stream{events.Mouse(events.MouseDown, t0, x, 150)}
	for m := int64(1); m <= 4; m++ {
		x += int64(rng.Intn(61) - 20)
		st = append(st, events.Mouse(events.MouseMove, t0+m, x, 150))
	}
	return append(st, events.Mouse(events.MouseUp, t0+10, x, 150))
}

// siblingClient drives one session and its oracle through the same drags
// (an undo after every third), comparing them after every event.
type siblingClient struct {
	sess   *server.Session
	oracle *core.Engine
	rng    *rand.Rand
	t0     int64
}

func (c *siblingClient) check(step string) error {
	for _, name := range siblingViews {
		got, err := c.sess.Relation(name)
		if err != nil {
			return err
		}
		want, err := c.oracle.Relation(name)
		if err != nil {
			return err
		}
		if !relation.Equal(got, want) {
			return fmt.Errorf("%s: %s diverges from the oracle\ngot:\n%s\nwant:\n%s", step, name, got, want)
		}
	}
	if !slices.Equal(c.sess.Image().Pix, c.oracle.Image().Pix) {
		return fmt.Errorf("%s: framebuffer diverges from the oracle's", step)
	}
	return nil
}

func (c *siblingClient) drive(label string, drags int) error {
	for d := 0; d < drags; d++ {
		c.t0 += 1000
		for i, ev := range siblingDrag(c.rng, c.t0) {
			if _, err := c.sess.Feed(ev); err != nil {
				return err
			}
			if _, err := c.oracle.FeedEvent(ev); err != nil {
				return err
			}
			if err := c.check(fmt.Sprintf("%s drag %d event %d", label, d, i)); err != nil {
				return err
			}
		}
		if d%3 == 2 {
			if err := c.sess.Undo(); err != nil {
				return err
			}
			if err := c.oracle.Undo(); err != nil {
				return err
			}
			if err := c.check(fmt.Sprintf("%s undo after drag %d", label, d)); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestSiblingFanOutServeParity(t *testing.T) {
	sales := siblingSales(3000)
	fs := faultfs.NewMem()
	opts := wal.Options{Dir: "data", FS: fs, Policy: wal.SyncNever}
	srv, _, err := server.NewDurable(server.Config{}, siblingProgram, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", sales); err != nil {
		t.Fatal(err)
	}
	clients := make([]*siblingClient, 2)
	for i := range clients {
		sess, err := srv.Attach()
		if err != nil {
			t.Fatal(err)
		}
		oracle := core.New(core.Config{RecomputeAll: true})
		if err := oracle.LoadProgram(siblingProgram); err != nil {
			t.Fatal(err)
		}
		if err := oracle.InsertRows("Sales", sales); err != nil {
			t.Fatal(err)
		}
		clients[i] = &siblingClient{sess: sess, oracle: oracle, rng: rand.New(rand.NewSource(int64(i + 1)))}
	}

	// Two sessions at once: their fanned-out charts probe the same shared
	// build sides concurrently.
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.drive(fmt.Sprintf("session %d", i), 9)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Shared writes fan out into both sessions: a described batch (the
	// charts apply the writer's Sales delta at once), then a statement the
	// server can only announce as an unknown change (every chart recomputes).
	more := siblingSales(3100)[3000:]
	if err := srv.InsertRows("Sales", more); err != nil {
		t.Fatal(err)
	}
	const insert = "INSERT INTO Sales VALUES (5000, 'ASIA', 'BUILDING', 3, 2, 999)"
	if err := srv.ExecShared(insert); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if err := c.oracle.InsertRows("Sales", more); err != nil {
			t.Fatal(err)
		}
		if err := c.oracle.Exec(insert); err != nil {
			t.Fatal(err)
		}
		if err := c.check(fmt.Sprintf("session %d after shared writes", i)); err != nil {
			t.Fatal(err)
		}
		if err := c.drive(fmt.Sprintf("session %d after shared writes", i), 3); err != nil {
			t.Fatal(err)
		}
	}

	// Restart over the same log and resume the first session by token.
	c := clients[0]
	token := c.sess.Token()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	srv2, _, err := server.NewDurable(server.Config{}, siblingProgram, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown()
	if c.sess, err = srv2.Resume(token); err != nil {
		t.Fatal(err)
	}
	if err := c.check("resumed"); err != nil {
		t.Fatal(err)
	}
	if err := c.drive("resumed", 6); err != nil {
		t.Fatal(err)
	}
	st, err := c.sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Exec.FusedApplies == 0 || st.Cube.Hits != 0 || st.Exec.RowFallbacks != 0 {
		t.Fatalf("charts left the fused path: %+v", st.Exec)
	}
}
