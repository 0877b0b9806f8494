// Command bench is the repository's benchmark: a single-goroutine loopback
// client that builds ./cmd/dvms-serve from the working tree, spawns it,
// drives seeded closed-loop interaction traffic over one connection of the
// real line-JSON socket, checks the answers against an oracle of its own,
// and prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh --workload brush_cube --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones (BENCHMARK.json lists both).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated rows and of the drag start months")
	seconds := flag.Int("seconds", 15, "length of the timed phase of an end-to-end run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics over the socket; 1: per-layer metrics from a traced run")
	quick := flag.Bool("quick", false, "smoke size: 2,000 rows and a few drags")
	flag.Parse()

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// Kill the children and remove the temporary files on a signal too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			e.cleanup()
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	code := 0
	for i := range selected {
		rep, err := run(e, &selected[i], *seed, time.Duration(*seconds)*time.Second, *trace == 1, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", selected[i].name, err)
			code = 1
			break
		}
		fmt.Print(rep.text.String())
		fmt.Println(rep.resultLine())
		if !rep.correct() {
			fmt.Fprintf(os.Stderr, "bench: %s: run is not correct: %s\n", selected[i].name, rep.why())
			code = 1
		}
	}
	e.cleanup()
	os.Exit(code)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run performs one run of one workload and returns its report.
func run(e *env, w *workload, seed int64, seconds time.Duration, traced, quick bool) (*report, error) {
	n := w.n
	if quick {
		n = 2000
	}
	rep := newReport()
	rep.notef("# dvms bench: workload=%s trace=%v seed=%d n=%d commit=%s %s nproc=%d",
		w.name, traced, seed, n, commit(e.root), runtime.Version(), runtime.NumCPU())
	if traced {
		if err := runTraced(e, w, n, seed, quick, rep); err != nil {
			return nil, err
		}
		return rep, rep.finish(perLayer, false)
	}
	if err := runEndToEnd(e, w, n, seed, seconds, quick, rep); err != nil {
		return nil, err
	}
	return rep, rep.finish(endToEnd, true)
}

// runEndToEnd is a --trace 0 run: the server's shipped defaults, the
// harness's span recording off.
func runEndToEnd(e *env, w *workload, n int, seed int64, seconds time.Duration, quick bool, rep *report) error {
	opts := socketOpts{w: w, n: n, seed: seed, quick: quick, setups: setupsPerRun, warmup: warmupDrags, seconds: seconds}
	if quick {
		opts.setups, opts.warmup, opts.seconds, opts.drags = 1, 3, 0, 20
	}
	rows := generateRows(n, seed)
	res, err := runSocket(e, opts, rows, newOracle(rows))
	if err != nil {
		return err
	}
	rep.absorb(res)
	t := &res.timed
	rep.notef("# timed phase: %d drags, %d events, %.3f s busy; set-ups: %d of %d warm-up drags", t.drags, t.events, t.busy.Seconds(), opts.setups, opts.warmup)
	// Host noise in a shared sandbox is one-sided and comes in bursts of a
	// second or so: it only ever adds time. So every number is the lower
	// quartile (for throughput the upper) over the run's repeats — set-ups,
	// or one-second segments of the timed phase — which the bursts leave
	// alone, where a mean or a median over the whole run moves with them.
	rep.set("setup_s", lowerQuartile(res.setupS), len(res.setupS))
	rep.set("attach_ms", lowerQuartile(res.attachMs), len(res.attachMs))
	perSegment := func(f func(*samples) float64) []float64 {
		v := make([]float64, len(res.segments))
		for i := range res.segments {
			v[i] = f(&res.segments[i])
		}
		return v
	}
	opPercentile := func(kind opKind, p float64) func(*samples) float64 {
		return func(s *samples) float64 { return percentile(sortedCopy(s.byOp[kind]), p) }
	}
	moves := len(t.byOp[opMove])
	moveP50 := perSegment(opPercentile(opMove, 50))
	rep.set("move_rtt_p50_us", lowerQuartile(moveP50), moves)
	rep.set("move_rtt_p95_us", lowerQuartile(perSegment(opPercentile(opMove, 95))), moves)
	rep.set("press_rtt_p50_us", lowerQuartile(perSegment(opPercentile(opPress, 50))), len(t.byOp[opPress]))
	rep.set("release_rtt_p50_us", lowerQuartile(perSegment(opPercentile(opRelease, 50))), len(t.byOp[opRelease]))
	rep.set("events_per_s", upperQuartile(perSegment(eventsPerSecond)), t.events)
	rep.set("peak_rss_mb", res.peakRSSMB, 1)
	rep.notef("# per set-up: setup_s %.2f  attach_ms %.0f  first_drag_ms %.1f", res.setupS, res.attachMs, res.firstDragMs)
	rep.notef("# per segment: move p50 us %.0f", moveP50)
	pooled := sortedCopy(t.byOp[opMove])
	tail := tailPercentile(moves)
	rep.notef("# %d segments; pooled over the run: move p50 %.1f us, p%v %.1f us (the highest percentile with ten samples beyond it), %.1f events/s",
		len(res.segments), percentile(pooled, 50), tail, percentile(pooled, tail), eventsPerSecond(t))
	// Client-observed, but of one workload each: informative here, reported
	// as metrics by --trace 1.
	if w.explore {
		rep.notef("# frame_rtt_p50_us %.1f (n=%d)  query_rtt_mean_ms %.3f (n=%d)  undo_rtt_p50_us %.1f (n=%d)",
			median(t.frame), len(t.frame), mean(t.byOp[opQuery])/1e3, len(t.byOp[opQuery]), median(t.byOp[opUndo]), len(t.byOp[opUndo]))
	}
	if w.durable {
		rep.notef("# recovery_s %.3f  resume_ms %.1f (journal of ~%d events)", res.recoveryS, res.resumeMs, t.events)
	}
	return nil
}

// eventsPerSecond is timed-phase events over the time the client spent
// waiting for the server: 60 or more means one user's mouse never queues.
func eventsPerSecond(s *samples) float64 { return ratio(float64(s.events), s.busy.Seconds()) }

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report collects one run's metrics and its human-readable text.
type report struct {
	values  map[string]float64
	samples map[string]int
	defs    []metric
	counts  opCounts
	guards  []string
	text    strings.Builder
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) notef(format string, args ...any) { fmt.Fprintf(&r.text, format+"\n", args...) }

// set records a metric with its sample count.
func (r *report) set(name string, v float64, n int) {
	r.values[name], r.samples[name] = v, n
}

// absorb adds a socket run's op counts and path guard to the report.
func (r *report) absorb(s *socketResult) {
	r.counts.add(s.counts)
	if s.guard != nil {
		r.guards = append(r.guards, s.guard.Error())
	}
}

// finish lists the metrics of defs in order. A metric the run did not set
// does not apply to the workload and reads 0; with `required` that is an
// error, as is a set metric that no definition names.
func (r *report) finish(defs []metric, required bool) error {
	r.defs = defs
	known := map[string]bool{}
	for _, m := range defs {
		known[m.name] = true
		v, ok := r.values[m.name]
		if required && (!ok || v <= 0) {
			return fmt.Errorf("metric %s was not measured (%v)", m.name, v)
		}
		r.notef("%-40s %16.4f %-6s n=%d", m.name, v, m.unit, r.samples[m.name])
	}
	for name := range r.values {
		if !known[name] {
			return fmt.Errorf("metric %s is not defined", name)
		}
	}
	r.notef("failed_ops_ratio %d/%d; path guards: %s", r.counts.failed, r.counts.attempted, r.why())
	return nil
}

func (r *report) correct() bool { return r.counts.failed == 0 && len(r.guards) == 0 }

func (r *report) why() string {
	var parts []string
	if r.counts.failed > 0 {
		parts = append(parts, fmt.Sprintf("%d failed ops, first: %s", r.counts.failed, r.counts.firstFailure))
	}
	parts = append(parts, r.guards...)
	if len(parts) == 0 {
		return "ok"
	}
	return strings.Join(parts, "; ")
}

// resultLine is the JSON object the driver reads from the last line.
func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.counts.attempted, Failed: r.counts.failed, Metrics: map[string]value{}}
	for _, m := range r.defs {
		out.Metrics[m.name] = value{r.values[m.name], m.unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}
