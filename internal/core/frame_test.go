package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/events"
	"repro/internal/parser"
	"repro/internal/wal/faultfs"
)

// assertFrameFresh reads the engine's frame and holds it to a from-scratch
// rasterization of the current sink relations, taken under the same lock.
func assertFrameFresh(t *testing.T, step string, e *Engine) {
	t.Helper()
	frame, oracle, err := e.FrameOracle()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if !slices.Equal(frame.Pix, oracle.Pix) {
		n := 0
		for i := range frame.Pix {
			if frame.Pix[i] != oracle.Pix[i] {
				n++
			}
		}
		t.Fatalf("%s: %d of %d pixels differ from a from-scratch rasterization of the sinks", step, n, len(frame.Pix))
	}
}

// TestFrameRasterizesOnRead: an engine allocates and paints its frame only
// when a host reads it, once per change that reached a sink.
func TestFrameRasterizesOnRead(t *testing.T) {
	e := New(Config{})
	if err := e.LoadProgram(brushingProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedStream(dragStream(10, 100, 10, 210, 160)); err != nil {
		t.Fatal(err)
	}
	if e.img != nil || e.Stats.RenderPasses != 0 {
		t.Fatalf("frame painted before any read: img %v, passes %d", e.img != nil, e.Stats.RenderPasses)
	}
	img := e.Image()
	e.Pixels(true)
	if e.Stats.RenderPasses != 1 {
		t.Fatalf("two reads of one state rasterized %d times, want 1", e.Stats.RenderPasses)
	}
	if _, err := e.FeedStream(dragStream(20, 80, 100, 400, 300)); err != nil {
		t.Fatal(err)
	}
	if e.Image() != img || e.Stats.RenderPasses != 2 {
		t.Fatalf("read after a change: same image %v, passes %d, want true and 2", e.Image() == img, e.Stats.RenderPasses)
	}
	assertFrameFresh(t, "after two drags", e)
}

// TestBadSinkFailsItsStatement pins where a sink that cannot render fails:
// at the statement that defines it (or gives it an uninferable schema),
// with the error text the render pass used to report, and never at a read.
func TestBadSinkFailsItsStatement(t *testing.T) {
	const base = "CREATE TABLE T (a int, x int, y int, width int, height int);\nINSERT INTO T VALUES (1, 10, 10, 5, 5);\n"
	const after = "Q = SELECT a FROM T;\n"
	cases := []struct {
		name, load, redefine, want string
	}{
		{"uninferable at load", "P = render(SELECT a FROM T);\n", "",
			"render P: cannot infer mark type from schema (a null)"},
		{"unknown mark type", "P = render(SELECT x, y, width, height FROM T, 'blob');\n", "",
			`render P: unknown mark type "blob"`},
		{"redefined uninferable", "P = render(SELECT x, y, width, height FROM T);\n", "P = render(SELECT a FROM T);\n",
			"render P: cannot infer mark type from schema (a null)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(Config{})
			if c.redefine == "" {
				c.load += after
			}
			err := e.LoadProgram(base + c.load)
			if c.redefine != "" {
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				assertFrameFresh(t, "before the redefinition", e)
				err = e.Exec(c.redefine + after)
			}
			if err == nil || err.Error() != c.want {
				t.Fatalf("error = %v, want %q", err, c.want)
			}
			if got := e.ViewNames(); !slices.Equal(got, []string{"P"}) {
				t.Fatalf("views = %v: the statements after the bad sink ran", got)
			}
			e.Image()
			e.Pixels(true)
		})
	}
}

// lazyFrameRedefinitions cycle the histogram sink through explicit and
// inferred mark types and through schema changes, circle included.
var lazyFrameRedefinitions = []string{
	"P2 = render(SELECT x, y, width, height, 'green' AS fill FROM HIST, 'rect');",
	"P2 = render(SELECT x + 5 AS center_x, y AS center_y, 6 AS radius, fill FROM HIST);",
	"P2 = render(SELECT x, y, width, height, fill, 'black' AS stroke FROM HIST);",
	"P2 = render(SELECT x, y, width, height, fill FROM HIST, 'rect');",
}

// TestLazyFrameWall is the laziness wall: a brushing engine with a log
// attached runs random committed drags, aborted drags, undos, base writes
// and sink redefinitions, restarts once from its log, and reads its frame
// only at random points. Every read must equal a from-scratch rasterization
// of the sink relations, so every path that changes a sink must leave the
// frame stale.
func TestLazyFrameWall(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runLazyFrameWall(t, seed) })
	}
}

func runLazyFrameWall(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{MaxHistory: 8}
	fs := faultfs.NewMem()
	l, _ := openTestWAL(t, fs, 1<<30)
	e := New(cfg)
	e.AttachWAL(l)
	if err := e.LoadProgram(brushingProgram); err != nil {
		t.Fatal(err)
	}
	stmts, err := parser.Parse(brushingProgram)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	maybeRead := func(step string) {
		if rng.Intn(5) < 2 {
			reads++
			assertFrameFresh(t, step, e)
		}
	}
	feed := func(step string, st events.Stream) {
		for i, ev := range st {
			if _, err := e.FeedEvent(ev); err != nil {
				t.Fatalf("%s event %d: %v", step, i, err)
			}
			maybeRead(fmt.Sprintf("%s event %d", step, i))
		}
	}
	exec := func(step, src string) {
		if err := e.Exec(src); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		e.Commit()
		ss, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, ss...)
		maybeRead(step)
	}
	const ops = 120
	for op, t0 := 0, int64(100); op < ops; op, t0 = op+1, t0+100 {
		if op == ops/2 {
			// Restart from the log; the recovered engine reads its frame
			// for the first time at the next random read.
			l.Close()
			l2, rec := openTestWAL(t, fs, 1<<30)
			if e, err = RecoverEngine(cfg, stmts, rec); err != nil {
				t.Fatalf("op %d: recover: %v", op, err)
			}
			e.AttachWAL(l2)
			l, reads = l2, 0
			maybeRead(fmt.Sprintf("op %d restart", op))
		}
		x0, y0 := int64(rng.Intn(300)), int64(10+rng.Intn(200))
		x1, y1 := x0+int64(rng.Intn(200)), y0+int64(rng.Intn(150))
		step := fmt.Sprintf("op %d", op)
		switch k := rng.Intn(10); {
		case k < 4:
			feed(step+" drag", dragStream(t0, x0, y0, x1, y1))
		case k < 6:
			// The last move breaks the FORALL y > 5 guard: the
			// interaction aborts and rolls back to the last commit.
			feed(step+" aborted drag", events.Stream{
				events.Mouse(events.MouseDown, t0, x0, y0),
				events.Mouse(events.MouseMove, t0+1, x1, y1),
				events.Mouse(events.MouseMove, t0+2, x1, 3),
			})
		case k < 8 && e.store.Versions() > 1:
			if err := e.Undo(); err != nil {
				t.Fatalf("%s undo: %v", step, err)
			}
			maybeRead(step + " undo")
		case k < 9:
			exec(step+" insert", fmt.Sprintf("INSERT INTO Sales VALUES (%d, %d, %d, %d, 'p');",
				100+op, 20+rng.Intn(80), rng.Intn(120), rng.Intn(120)))
		default:
			exec(step+" redefine", lazyFrameRedefinitions[rng.Intn(len(lazyFrameRedefinitions))])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	assertFrameFresh(t, "end", e)
	if reads < ops/4 || e.Stats.RenderPasses > reads+1 {
		t.Fatalf("%d reads, %d render passes since the restart: reads must be the only rasterizations", reads, e.Stats.RenderPasses)
	}
}
