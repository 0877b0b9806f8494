package experiments

import (
	"testing"

	"repro/internal/core"
)

// benchBrush drives steady-state cube brushing through one engine; comparing
// BenchmarkObsOn vs BenchmarkObsOff isolates the per-event instrumentation
// cost (stage histograms + trace spans); bench/ reports the same ratio over a
// socket as obs.off_speedup.
//
//	go test ./internal/experiments -bench 'ObsO(n|ff)' -benchtime 2s
func benchBrush(b *testing.B, cfg core.Config) {
	e, err := NewCubeEngine(2000, 7, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.FeedStream(CubeDragStream(2)); err != nil {
		b.Fatal(err)
	}
	steady := CubeDragStream(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.FeedStream(steady); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsOn(b *testing.B)  { benchBrush(b, core.Config{}) }
func BenchmarkObsOff(b *testing.B) { benchBrush(b, core.Config{DisableObs: true}) }
