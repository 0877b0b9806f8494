// Command dvms-bench regenerates the paper's tables and figures as text
// series (see DESIGN.md §2 for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured comparisons).
//
// Usage:
//
//	dvms-bench -experiment all
//	dvms-bench -experiment fig5 -participants 60
//	dvms-bench -experiment fig1 -n 5000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cc"
	"repro/internal/experiments"
)

func main() {
	var (
		experiment   = flag.String("experiment", "all", "one of: fig1 fig2 table1 deVIL4 fig5 fig5-trend fig6 fig7 stream a1 a2 e2e ivm version topk serve wal cube obs all")
		n            = flag.Int("n", 2000, "workload size (rows/products/queries, experiment dependent)")
		sessions     = flag.Int("sessions", 10, "concurrent sessions for the serve experiment")
		participants = flag.Int("participants", 40, "simulated participants for fig5")
		seed         = flag.Int64("seed", 7, "workload seed")
		format       = flag.String("format", "text", "output format: text or json (machine-readable, for BENCH_*.json trajectories)")
	)
	flag.Parse()

	if err := run(*experiment, *format, *n, *sessions, *participants, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "dvms-bench:", err)
		os.Exit(1)
	}
}

func run(experiment, format string, n, sessions, participants int, seed int64) (err error) {
	if format != "text" && format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", format)
	}
	var collected []experiments.Result
	print := func(r experiments.Result, err error) error {
		if err != nil {
			return err
		}
		if format == "json" {
			collected = append(collected, r)
			return nil
		}
		fmt.Printf("=== %s — %s ===\n%s\n", r.ID, r.Title, r.Output)
		return nil
	}
	// Emit JSON only on full success: a partial array in a redirected
	// BENCH_*.json would read as a valid-but-incomplete trajectory.
	defer func() {
		if err == nil && format == "json" && len(collected) > 0 {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			err = enc.Encode(collected)
		}
	}()
	switch experiment {
	case "fig1":
		return print(experiments.Fig1Crossfilter(n, seed))
	case "fig2":
		return print(experiments.Fig2LinkedBrush(min(n, 500), seed))
	case "table1":
		return print(experiments.Table1())
	case "deVIL4":
		return print(experiments.DeVIL4TraceVsJoin(min(n, 500), 5, seed))
	case "fig5":
		return print(experiments.Fig5(cc.Threshold, participants, seed), nil)
	case "fig5-trend":
		return print(experiments.Fig5(cc.Trend, participants, seed), nil)
	case "fig6":
		return print(experiments.Fig6(n*10, seed))
	case "fig7":
		return print(experiments.Fig7(n*4, seed))
	case "stream":
		return print(experiments.StreamExperiment(600, seed))
	case "a1":
		return print(experiments.AblationIncremental(n, seed))
	case "a2":
		return print(experiments.AblationProvenance(min(n, 300), seed))
	case "e2e":
		return print(experiments.EndToEnd([]int{50, 200, 800, 2000}, seed))
	case "ivm":
		// -n sets the largest size; smaller decades show the scaling trend.
		sizes := []int{n}
		if n >= 100000 {
			sizes = []int{n / 100, n / 10, n}
		} else if n >= 10000 {
			sizes = []int{n / 10, n}
		}
		return print(experiments.IVMScaling(sizes, 6, seed))
	case "version":
		// -n sets the largest size; smaller decades show the scaling trend.
		sizes := []int{n}
		if n >= 100000 {
			sizes = []int{n / 100, n / 10, n}
		} else if n >= 10000 {
			sizes = []int{n / 10, n}
		}
		return print(experiments.VersioningExperiment(sizes, 40, seed))
	case "serve":
		// Fan-out trajectory: 1 session (pure overhead vs single-tenant)
		// and the full -sessions count, at base size -n.
		counts := []int{1, sessions}
		if sessions <= 1 {
			counts = []int{sessions}
		}
		return print(experiments.ServeScaling(n, counts, 6, seed))
	case "topk":
		// -n sets the largest size; smaller decades show the scaling trend.
		sizes := []int{n}
		if n >= 100000 {
			sizes = []int{n / 100, n / 10, n}
		} else if n >= 10000 {
			sizes = []int{n / 10, n}
		}
		return print(experiments.TopKScaling(sizes, 6, 40, seed))
	case "wal":
		// -n sets the largest base size; smaller decades show how append
		// overhead and recovery time scale with base data.
		sizes := []int{n}
		if n >= 1000000 {
			sizes = []int{n / 100, n / 10, n}
		} else if n >= 10000 {
			sizes = []int{n / 10, n}
		}
		return print(experiments.WALExperiment(sizes, 40, seed))
	case "cube":
		// -n sets the largest size; smaller decades show the scaling trend
		// (the headline claim is flat µs/event across them).
		sizes := []int{n}
		if n >= 100000 {
			sizes = []int{n / 100, n / 10, n}
		} else if n >= 10000 {
			sizes = []int{n / 10, n}
		}
		return print(experiments.CubeScaling(sizes, 50, seed))
	case "obs":
		// -n sets the largest size; the overhead ratio is the headline, so
		// one extra decade shows it holds as event cost shrinks relative to
		// the fixed instrumentation cost.
		sizes := []int{n}
		if n >= 100000 {
			sizes = []int{n / 100, n}
		}
		return print(experiments.ObsOverhead(sizes, 3, seed))
	case "all":
		results, err := experiments.All()
		if err != nil {
			return err
		}
		for _, r := range results {
			if err := print(r, nil); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
