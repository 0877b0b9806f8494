package server_test

// Serve-tier walls for the frame rasterized on read: a session's frame,
// read only at random points through drags, undos, shared writes and a
// durable restart with resume, must equal a from-scratch rasterization of
// its sinks; and reading it from one goroutine while others drive the
// session and write the shared base must be race-free.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// checkSessionFrame reads a session's frame and holds it to a from-scratch
// rasterization of the session's sink relations, taken under the same
// engine lock.
func checkSessionFrame(sess *server.Session, step string) error {
	frame, oracle, err := server.SessionEngine(sess).FrameOracle()
	if err != nil {
		return fmt.Errorf("%s: %w", step, err)
	}
	if !slices.Equal(frame.Pix, oracle.Pix) {
		return fmt.Errorf("%s: frame differs from a from-scratch rasterization of the sinks", step)
	}
	return nil
}

// bigSales are shared rows whose revenue moves every selected month's bar.
func bigSales(rng *rand.Rand, id, n int) []relation.Tuple {
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(int64(id + i)), relation.String("ASIA"), relation.String("BUILDING"),
			relation.Int(int64(1 + rng.Intn(12))), relation.Int(int64(rng.Intn(7))), relation.Int(30000)}
	}
	return rows
}

// TestLazyFrameServeWall: one session of a durable server runs random drags
// and undos between shared writes (which reach it through
// ApplyExternalDeltas), the server restarts from its log halfway and the
// session resumes by token; the frame is read only at random points.
func TestLazyFrameServeWall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fs := faultfs.NewMem()
	opts := wal.Options{Dir: "data", FS: fs, Policy: wal.SyncNever}
	srv, _, err := server.NewDurable(server.Config{}, siblingProgram, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", siblingSales(2000)); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	maybeRead := func(step string) {
		if rng.Intn(5) < 2 {
			if err := checkSessionFrame(sess, step); err != nil {
				t.Fatal(err)
			}
		}
	}
	const ops = 60
	t0, id := int64(0), 10000
	for op := 0; op < ops; op++ {
		step := fmt.Sprintf("op %d", op)
		if op == ops/2 {
			token := sess.Token()
			if err := srv.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if srv, _, err = server.NewDurable(server.Config{}, siblingProgram, opts); err != nil {
				t.Fatal(err)
			}
			if sess, err = srv.Resume(token); err != nil {
				t.Fatal(err)
			}
			maybeRead(step + " resumed")
		}
		switch k := rng.Intn(6); {
		case k < 3:
			t0 += 1000
			for i, ev := range siblingDrag(rng, t0) {
				if _, err := sess.Feed(ev); err != nil {
					t.Fatal(err)
				}
				maybeRead(fmt.Sprintf("%s drag event %d", step, i))
			}
		case k < 4:
			if err := sess.Undo(); err != nil {
				t.Fatal(err)
			}
			maybeRead(step + " undo")
		default:
			if err := srv.InsertRows("Sales", bigSales(rng, id, 3)); err != nil {
				t.Fatal(err)
			}
			id += 3
			maybeRead(step + " shared write")
		}
	}
	if err := checkSessionFrame(sess, "end"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameReaderRace reads a session's frame (Session.Image, Engine.Pixels
// and the oracle check) in a loop on one goroutine while a second drives
// drags and undos on that session and a third writes the shared base. Every
// oracle check must hold; under -race, no access may race.
func TestFrameReaderRace(t *testing.T) {
	srv, err := server.New(server.Config{}, siblingProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InsertRows("Sales", siblingSales(1500)); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Attach()
	if err != nil {
		t.Fatal(err)
	}
	eng := server.SessionEngine(sess)
	done := make(chan struct{})
	var writers, reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		img := sess.Image()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if got := sess.Image(); got != img {
				t.Error("Image returned a different framebuffer")
				return
			}
			_ = img.NonBackgroundCount()
			_ = eng.Pixels(true)
			if err := checkSessionFrame(sess, fmt.Sprint("read ", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Add(2)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(1))
		for d := 0; d < 12; d++ {
			for _, ev := range siblingDrag(rng, int64(1000*(d+1))) {
				if _, err := sess.Feed(ev); err != nil {
					t.Error(err)
					return
				}
			}
			if d%3 == 2 {
				if err := sess.Undo(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(2))
		for w := 0; w < 12; w++ {
			if err := srv.InsertRows("Sales", bigSales(rng, 20000+4*w, 4)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	reader.Wait()
	if err := checkSessionFrame(sess, "end"); err != nil {
		t.Fatal(err)
	}
}
