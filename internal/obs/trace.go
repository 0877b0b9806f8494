package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage names used by the engine's event path. The delta stage additionally
// carries a Path (cube, fused, row, fallback) naming how the view's update
// was computed.
const (
	StageRecognize = "recognize" // event → recognizer rows
	StagePrepare   = "prepare"   // plan build + optimize + compile (bind time)
	StageDelta     = "delta"     // delta propagation through one view
	StageSort      = "sort"      // ordered-view row-order maintenance
	StageRender    = "render"    // rasterization pass
	StageCommit    = "commit"    // version boundary seal (includes WAL append)
)

// Path labels for StageDelta spans.
const (
	PathCube     = "cube"     // answered from data-cube index tiles
	PathFused    = "fused"    // delta stream folded into aggregate accumulators
	PathRow      = "row"      // delta stream with no aggregate consumer (rows to the output)
	PathFallback = "fallback" // full recompute (non-safe plan or delta failure)
)

// Span is one timed stage inside an event trace.
type Span struct {
	Stage   string  `json:"stage"`
	View    string  `json:"view,omitempty"` // view name for delta/sort spans
	Path    string  `json:"path,omitempty"` // delta path taken (cube/fused/row/fallback)
	RowsIn  int     `json:"rows_in,omitempty"`
	RowsOut int     `json:"rows_out,omitempty"`
	DurUS   float64 `json:"dur_us"`
}

// Trace is one interaction event's stage breakdown: ordered spans whose
// durations account for (approximately) the whole event latency; the gap to
// TotalUS is untimed glue (map walks, bookkeeping).
type Trace struct {
	ID          int64   `json:"id"`
	Event       string  `json:"event"`                 // low-level event type
	Interaction string  `json:"interaction,omitempty"` // compound event table, when recognized
	Spans       []Span  `json:"spans"`
	TotalUS     float64 `json:"total_us"`
	Slow        bool    `json:"slow,omitempty"` // exceeded the latency budget

	start time.Time
}

// ring is a fixed-capacity overwrite-oldest trace buffer.
type ring struct {
	mu   sync.Mutex
	buf  []Trace
	next int
	n    int
}

func newRing(capacity int) *ring { return &ring{buf: make([]Trace, capacity)} }

// add copies the trace into the next slot. The spans are copied into the
// slot's own backing array (reused across generations), never aliased, so
// callers may recycle t.Spans immediately after add returns.
func (r *ring) add(t Trace) {
	r.mu.Lock()
	slot := &r.buf[r.next]
	spans := slot.Spans
	*slot = t
	slot.Spans = append(spans[:0], t.Spans...)
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// list returns the retained traces, oldest first.
func (r *ring) list() []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, 0, r.n)
	start := r.next - r.n
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i+len(r.buf))%len(r.buf)])
	}
	return out
}

// DefaultBudget is the per-event latency budget when none is configured:
// the ~100 ms perceptual brushing budget from the HDI literature.
const DefaultBudget = 100 * time.Millisecond

// Recorder ties a registry, a trace ring, and a slow-event log together for
// one engine. A nil *Recorder is the disabled (ablation) arm: every method
// is nil-safe and free, so instrumented code needs no branching beyond the
// calls themselves.
type Recorder struct {
	reg    *Registry
	budget time.Duration
	traces *ring
	slow   *ring
	nextID atomic.Int64

	// pool recycles Trace objects (and their span backing arrays) between
	// StartEvent and EndEvent: the rings copy spans out, so steady-state
	// tracing allocates nothing per event.
	pool sync.Pool

	// cached hot-path histograms (avoid registry lookups per event)
	eventHist *Histogram
	slowCount *Counter

	// interned stage histograms: the stage/path vocabulary is fixed, so every
	// Span on the hot path resolves its histogram by switch instead of
	// allocating a concatenated name and walking the registry map.
	hRecognize, hPrepare, hSort, hRender, hCommit      *Histogram
	hDeltaCube, hDeltaFused, hDeltaRow, hDeltaFallback *Histogram
}

// NewRecorder builds an enabled recorder. budget <= 0 uses DefaultBudget.
func NewRecorder(budget time.Duration) *Recorder {
	if budget <= 0 {
		budget = DefaultBudget
	}
	reg := NewRegistry()
	return &Recorder{
		reg:       reg,
		budget:    budget,
		traces:    newRing(128),
		slow:      newRing(64),
		eventHist: reg.Hist("dvms_event_seconds"),
		slowCount: reg.Counter("dvms_slow_events_total"),

		hRecognize:     reg.Hist("dvms_stage_recognize_seconds"),
		hPrepare:       reg.Hist("dvms_stage_prepare_seconds"),
		hSort:          reg.Hist("dvms_stage_sort_seconds"),
		hRender:        reg.Hist("dvms_stage_render_seconds"),
		hCommit:        reg.Hist("dvms_stage_commit_seconds"),
		hDeltaCube:     reg.Hist("dvms_stage_delta_cube_seconds"),
		hDeltaFused:    reg.Hist("dvms_stage_delta_fused_seconds"),
		hDeltaRow:      reg.Hist("dvms_stage_delta_row_seconds"),
		hDeltaFallback: reg.Hist("dvms_stage_delta_fallback_seconds"),
	}
}

// stageHist resolves the interned histogram for a stage/path pair; unknown
// combinations fall back to a registry lookup so the naming scheme still
// holds for stages added later.
func (r *Recorder) stageHist(stage, path string) *Histogram {
	switch stage {
	case StageDelta:
		switch path {
		case PathCube:
			return r.hDeltaCube
		case PathFused:
			return r.hDeltaFused
		case PathRow:
			return r.hDeltaRow
		case PathFallback:
			return r.hDeltaFallback
		}
	case StageRecognize:
		return r.hRecognize
	case StagePrepare:
		return r.hPrepare
	case StageSort:
		return r.hSort
	case StageRender:
		return r.hRender
	case StageCommit:
		return r.hCommit
	}
	name := "dvms_stage_" + stage + "_seconds"
	if path != "" {
		name = "dvms_stage_" + stage + "_" + path + "_seconds"
	}
	return r.reg.Hist(name)
}

// Registry exposes the recorder's registry (nil-safe).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Budget is the configured slow-event latency budget (0 when disabled).
func (r *Recorder) Budget() time.Duration {
	if r == nil {
		return 0
	}
	return r.budget
}

// Now is the trace clock: zero (and free) when the recorder is disabled, so
// call sites can time stages unconditionally.
func (r *Recorder) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// StartEvent opens a trace for one interaction event. Returns nil (free)
// when the recorder is disabled.
func (r *Recorder) StartEvent(eventType string) *Trace {
	if r == nil {
		return nil
	}
	tr, _ := r.pool.Get().(*Trace)
	if tr == nil {
		tr = &Trace{Spans: make([]Span, 0, 16)}
	}
	*tr = Trace{
		ID:    r.nextID.Add(1),
		Event: eventType,
		Spans: tr.Spans[:0],
		start: time.Now(),
	}
	return tr
}

// Span records one stage: the duration lands in the stage histogram
// ("dvms_stage_<stage>[_<path>]_seconds") and, when tr is non-nil, as a span
// on the trace. start comes from Now; a zero start (disabled recorder) is a
// no-op, so callers never branch.
func (r *Recorder) Span(tr *Trace, stage, view, path string, start time.Time, rowsIn, rowsOut int) {
	if r == nil || start.IsZero() {
		return
	}
	r.SpanDur(tr, stage, view, path, time.Since(start), rowsIn, rowsOut)
}

// SpanDur is Span with the duration given rather than timed from a start:
// the engine attributes the wall time of views it updated at once to each
// of them (OBSERVABILITY.md, "Sibling views"), so that their spans sum to no
// more than the time they took together.
func (r *Recorder) SpanDur(tr *Trace, stage, view, path string, d time.Duration, rowsIn, rowsOut int) {
	if r == nil {
		return
	}
	r.stageHist(stage, path).Observe(d)
	if tr != nil {
		tr.Spans = append(tr.Spans, Span{
			Stage: stage, View: view, Path: path,
			RowsIn: rowsIn, RowsOut: rowsOut,
			DurUS: us(d),
		})
	}
}

// EndEvent closes a trace: total latency lands in dvms_event_seconds, the
// trace enters the ring, and — when the total exceeds the budget — the slow
// log retains the full stage breakdown and the slow counter advances.
// interaction is the compound event table the event drove ("" if filtered).
func (r *Recorder) EndEvent(tr *Trace, interaction string) {
	if r == nil || tr == nil {
		return
	}
	total := time.Since(tr.start)
	tr.TotalUS = us(total)
	tr.Interaction = interaction
	r.eventHist.Observe(total)
	if total > r.budget {
		tr.Slow = true
		r.slowCount.Add(1)
		r.slow.add(*tr)
	}
	r.traces.add(*tr)
	r.pool.Put(tr) // rings copied the spans; the object is free to reuse
}

// Traces returns the retained recent traces, oldest first (nil-safe).
func (r *Recorder) Traces() []Trace {
	if r == nil {
		return nil
	}
	return r.traces.list()
}

// SlowEvents returns the retained slow-event traces, oldest first (nil-safe).
func (r *Recorder) SlowEvents() []Trace {
	if r == nil {
		return nil
	}
	return r.slow.list()
}

// Snapshot captures the recorder's registry (empty snapshot when disabled,
// so wire surfaces can embed it unconditionally).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return r.reg.Snapshot()
}
