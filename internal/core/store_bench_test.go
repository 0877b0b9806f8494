package core

// BenchmarkVersioning measures the per-event cost of version-history
// maintenance: the delta-log MarkEvent (seal the recorded deltas of one
// brush event) against the snapshot baseline (the pre-refactor MarkEvent:
// shallow-copy every relation). The delta-log arm's cost tracks the event
// delta (a couple dozen rows) regardless of database size; the snapshot
// arm's cost tracks the database. Run:
//
//	go test ./internal/core -run '^$' -bench BenchmarkVersioning -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// capture shallow-copies the entire current state — the pre-refactor
// MarkEvent mechanism the baseline arm measures.
func capture(s *Store) snapshot {
	snap := make(snapshot, len(s.rels))
	for k, r := range s.rels {
		snap[k] = r.Snapshot()
	}
	return snap
}

// benchDB builds a store shaped like the IVM crossfilter mid-drag: one
// n-row base relation, a handful of small chart views, and an open
// transaction.
func benchDB(n int) (*Store, *relation.Relation) {
	s := NewStore(64)
	base := relation.New("Sales", relation.NewSchema(
		relation.Col("id", relation.KindInt),
		relation.Col("month", relation.KindInt),
		relation.Col("revenue", relation.KindInt),
	))
	base.Rows = make([]relation.Tuple, n)
	for i := 0; i < n; i++ {
		base.Rows[i] = relation.Tuple{
			relation.Int(int64(i)), relation.Int(int64(i%12 + 1)), relation.Int(int64(i % 997)),
		}
	}
	s.Put(base)
	barSchema := relation.NewSchema(relation.Col("grp", relation.KindInt), relation.Col("total", relation.KindInt))
	for c := 0; c < 5; c++ {
		chart := relation.New(fmt.Sprintf("CHART_%d", c), barSchema)
		for g := 0; g < 12; g++ {
			chart.MustAppend(relation.Tuple{relation.Int(int64(g)), relation.Int(int64(g * 1000))})
		}
		s.Put(chart)
	}
	s.Commit()
	s.BeginTxn()
	bars, _ := s.Get("CHART_0")
	return s, bars
}

// brushDelta is the per-event change of a single-bar brush step: one bar's
// total leaves, the updated total arrives.
func brushDelta(bars *relation.Relation, step int) relation.Delta {
	old := bars.Rows[step%len(bars.Rows)]
	upd := relation.Tuple{old[0], relation.Int(int64(step))}
	return relation.Delta{Del: []relation.Tuple{old}, Ins: []relation.Tuple{upd}}
}

func BenchmarkVersioning(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n%d/markevent-delta-log", n), func(b *testing.B) {
			s, bars := benchDB(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := brushDelta(bars, i)
				if err := bars.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				s.recordChange("CHART_0", d)
				s.MarkEvent()
			}
		})
		b.Run(fmt.Sprintf("n%d/markevent-snapshot-baseline", n), func(b *testing.B) {
			s, bars := benchDB(n)
			hist := make([]snapshot, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := brushDelta(bars, i)
				if err := bars.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				// The pre-refactor MarkEvent: capture every relation.
				hist = append(hist, capture(s))
			}
			_ = hist
		})
		// Resolution cost of the versions the log reconstructs on demand:
		// the common @tnow-1 read mid-drag (after a long marked history).
		b.Run(fmt.Sprintf("n%d/resolve-tnow1", n), func(b *testing.B) {
			s, bars := benchDB(n)
			for i := 0; i < 50; i++ {
				d := brushDelta(bars, i)
				if err := bars.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				s.recordChange("CHART_0", d)
				s.MarkEvent()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Resolve("CHART_0", relation.TNow(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
