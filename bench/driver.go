package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// opKind classifies a request for timing.
type opKind uint8

const (
	opPress opKind = iota // MOUSE_DOWN
	opMove
	opRelease // MOUSE_UP
	opRelation
	opQuery
	opUndo
	opOther // ping, stats, resume, and the oracle's verification reads
	numOps
)

var opNames = [numOps]string{"press", "move", "release", "relation", "query", "undo", "other"}

// target is something that answers request lines: the socket client or the
// in-process replica of the dvms-serve loop. do returns the response line
// (valid until the next call) and the time the request took; a failed
// request is counted by the target and returns nil.
type target interface {
	do(kind opKind, line []byte) ([]byte, time.Duration)
	counts() *opCounts
}

// opCounts is a target's tally: ops attempted and ops failed (error
// replies, oracle mismatches, timeouts).
type opCounts struct {
	attempted, failed int
	firstFailure      string
}

func (c *opCounts) fail(format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (c *opCounts) add(o opCounts) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.firstFailure == "" {
		c.firstFailure = o.firstFailure
	}
}

var okPrefix = []byte(`{"ok":true`)

// samples are the timings pooled over one phase, in µs.
type samples struct {
	byOp   [numOps][]float64
	frame  []float64     // event + five relation reads
	events int           // events fed
	busy   time.Duration // first send → last receive, summed over drags
	drags  int
}

func (s *samples) merge(o *samples) {
	for k := range s.byOp {
		s.byOp[k] = append(s.byOp[k], o.byOp[k]...)
	}
	s.frame = append(s.frame, o.frame...)
	s.events += o.events
	s.busy += o.busy
	s.drags += o.drags
}

// driver turns a seed into interaction traffic and checks the answers. One
// drag is MOUSE_DOWN just left of a seeded month, five MOUSE_MOVEs each
// extending the brush by one month bucket, and MOUSE_UP: seven events, each
// of which changes the selection.
type driver struct {
	w           *workload
	tg          target
	or          *oracle
	rng         *rand.Rand
	t           int64 // event timestamp
	dragNo      int
	verifyEvery int
	// committed is the brush start (m0) of each committed version, newest
	// last; undo restores the one before the newest and commits it again.
	committed []int
	line      []byte
}

func newDriver(w *workload, tg target, or *oracle, seed int64, quick bool) *driver {
	d := &driver{w: w, tg: tg, or: or, rng: rand.New(rand.NewSource(seed)), t: 2, verifyEvery: verifyEvery}
	if quick {
		d.verifyEvery = 3
	}
	return d
}

// eventLine encodes one event request. Month m's bucket sits at x = 20+20m.
func eventLine(buf []byte, typ string, t, x int64) []byte {
	buf = append(buf[:0], `{"op":"event","type":"`...)
	buf = append(buf, typ...)
	buf = append(buf, `","t":`...)
	buf = strconv.AppendInt(buf, t, 10)
	buf = append(buf, `,"x":`...)
	buf = strconv.AppendInt(buf, x, 10)
	return append(buf, `,"y":45}`+"\n"...)
}

// dragEvent is the k-th of a drag's seven events: its kind, type and x. A
// drag starting at m0 (0..7) ends with months m0+1..m0+5 brushed.
func dragEvent(m0, k int) (opKind, string, int64) {
	x0 := int64(25 + 20*m0)
	switch k {
	case 0:
		return opPress, "MOUSE_DOWN", x0
	case eventsPerDrag - 1:
		return opRelease, "MOUSE_UP", x0 + 100
	default:
		return opMove, "MOUSE_MOVE", x0 + int64(20*k)
	}
}

// drag drives one drag and, on explore_mixed, the reads, queries and undos
// that go with it. Timings go to s when it is not nil. Oracle checks run
// outside the timed section.
func (d *driver) drag(s *samples, verify bool) {
	m0 := d.rng.Intn(8)
	var busy time.Duration
	for k := 0; k < eventsPerDrag; k++ {
		kind, typ, x := dragEvent(m0, k)
		d.line = eventLine(d.line, typ, d.t, x)
		d.t++
		_, took := d.tg.do(kind, d.line)
		busy += took
		if s != nil {
			s.byOp[kind] = append(s.byOp[kind], us(took))
		}
		if d.w.explore {
			reads := d.frame(s)
			busy += reads
			if s != nil {
				s.frame = append(s.frame, us(took+reads))
			}
		}
	}
	d.committed = append(d.committed[max(0, len(d.committed)-1):], m0)
	d.dragNo++
	undone := false
	if d.w.explore {
		if d.dragNo%queryEvery == 0 {
			_, took := d.tg.do(opQuery, adhocLines[(d.dragNo/queryEvery)%len(adhoc)])
			busy += took
			if s != nil {
				s.byOp[opQuery] = append(s.byOp[opQuery], us(took))
			}
		}
		if d.dragNo%undoEvery == 0 && len(d.committed) == 2 {
			_, took := d.tg.do(opUndo, undoLine)
			busy += took + d.frame(s)
			if s != nil {
				s.byOp[opUndo] = append(s.byOp[opUndo], us(took))
			}
			d.committed = []int{d.committed[1], d.committed[0]}
			undone = true
		}
	}
	if s != nil {
		s.events += eventsPerDrag
		s.busy += busy
		s.drags++
	}
	if verify || undone || d.dragNo%d.verifyEvery == 0 {
		d.verifyCharts()
	}
}

// frame re-reads the five chart views, as a client redrawing would.
func (d *driver) frame(s *samples) time.Duration {
	var total time.Duration
	for _, line := range frameLines {
		_, took := d.tg.do(opRelation, line)
		total += took
		if s != nil {
			s.byOp[opRelation] = append(s.byOp[opRelation], us(took))
		}
	}
	return total
}

func relationLine(view string) []byte {
	return []byte(`{"op":"relation","name":"` + view + `"}` + "\n")
}

func queryLine(q string) []byte { return []byte(`{"op":"query","q":"` + q + `"}` + "\n") }

// The request lines of the timed sections, encoded once.
var (
	undoLine   = []byte(`{"op":"undo"}` + "\n")
	frameLines = func() (lines [][]byte) {
		for _, v := range frameViews {
			lines = append(lines, relationLine(v))
		}
		return lines
	}()
	adhocLines = func() (lines [][]byte) {
		for _, q := range adhoc {
			lines = append(lines, queryLine(q.q))
		}
		return lines
	}()
)

// verifyCharts reads the four FILT_* charts and compares them with the
// oracle for the months the newest committed version brushes.
func (d *driver) verifyCharts() {
	m0 := d.committed[len(d.committed)-1]
	for _, dim := range oracleDims {
		resp, _ := d.tg.do(opOther, relationLine("FILT_"+dim))
		if resp == nil {
			continue // already counted as failed
		}
		if err := checkGroups(resp, d.or.expect(dim, m0+1, m0+5)); err != nil {
			d.tg.counts().fail("drag %d: FILT_%s: %v", d.dragNo, dim, err)
		}
	}
}

// verifyQueries runs each ad-hoc query once and checks its answer: the
// group-by against the oracle, the others by size.
func (d *driver) verifyQueries() {
	for _, q := range adhoc {
		resp, _ := d.tg.do(opOther, queryLine(q.q))
		if resp == nil {
			continue
		}
		var err error
		switch q.class {
		case "groupby":
			err = checkGroups(resp, d.or.regions)
		case "filter":
			err = checkRowCount(resp, min(100, d.w.n))
		case "topn":
			err = checkRowCount(resp, min(20, d.w.n))
		default:
			if !bytes.HasPrefix(resp, okPrefix) {
				err = fmt.Errorf("error response")
			}
		}
		if err != nil {
			d.tg.counts().fail("query %s: %v", q.class, err)
		}
	}
}

// warmup drives the warm-up drags, each verified, and returns the first
// drag's seven round trips summed.
func (d *driver) warmup(drags int) (firstDrag time.Duration) {
	for i := 0; i < drags; i++ {
		var s *samples
		if i == 0 {
			s = &samples{}
		}
		d.drag(s, true)
		if i == 0 {
			for _, kind := range []opKind{opPress, opMove, opRelease} {
				for _, v := range s.byOp[kind] {
					firstDrag += time.Duration(v * 1e3)
				}
			}
		}
	}
	if d.w.explore {
		d.verifyQueries()
	}
	return firstDrag
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
