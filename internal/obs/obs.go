// Package obs is the pipeline observability layer: per-stage wall-time
// spans and typed work counters (CounterSet) carried through
// context.Context, plus request trace IDs and a Prometheus text-format
// writer. It is stdlib-only and designed around one invariant: when no
// Recorder is attached to the context, every call degenerates to a nil
// check — the instrumented hot paths (forest extraction, tree DP) pay
// nothing measurable.
//
// Usage: a serving or CLI layer creates a Recorder per pipeline run,
// attaches it with WithRecorder, and reads StageMillis/CounterSetSnapshot
// when the run finishes. Library code brackets its stages with
//
//	span := obs.RecorderFrom(ctx).Start(obs.StageTreeDP)
//	... work ...
//	span.End()
//
// and counts work into a CounterSet: a worker Accum's (Accum.CS) on hot
// fan-out paths, or a local one folded in with Recorder.MergeCounterSet.
// Stage names are chosen so the recorded set is a disjoint partition of
// the pipeline: stage durations can be summed and compared against the
// end-to-end latency without double counting.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Stage names recorded by the RID pipeline, in execution order. They are
// disjoint (no stage nests inside another), so their durations sum to at
// most the end-to-end detect time.
const (
	// StageGraphBuild is wire-trace validation plus adjacency construction
	// (skipped on a graph-cache hit).
	StageGraphBuild = "graph_build"
	// StageSnapshot is observed-state binding onto the built network.
	StageSnapshot = "snapshot"
	// StageReverse is diffusion-direction reversal (CLI pipelines only;
	// wire traces ship pre-reversed).
	StageReverse = "reverse"
	// StageComponents is infected-subgraph induction plus connected
	// component detection (Definition 6).
	StageComponents = "components"
	// StageArborescence is candidate-link scoring plus the log-space
	// Chu-Liu/Edmonds spanning forest, summed over components.
	StageArborescence = "arborescence"
	// StageTreeBuild is cascade-tree assembly, state imputation and edge
	// re-scoring after the arborescence solve.
	StageTreeBuild = "tree_build"
	// StageBinarize is the Figure 3 binary transform (budget DP only).
	StageBinarize = "binarize"
	// StageTreeDP is per-tree initiator inference (threshold rule,
	// penalized DP or budget DP), summed over trees.
	StageTreeDP = "tree_dp"
)

// StageStat aggregates the observations of one stage within a Recorder.
type StageStat struct {
	// Count is the number of spans recorded under the stage name.
	Count int64
	// Total is the summed wall time; Max the longest single span.
	Total time.Duration
	Max   time.Duration
}

// Recorder accumulates per-stage wall times and typed work counters for
// one pipeline run (typically one detect request). All methods are safe for
// concurrent use and safe on a nil receiver, where they no-op — callers
// thread the RecorderFrom(ctx) result unconditionally.
//
// Under the parallel pipeline, per-component and per-tree spans are summed
// across workers, so a stage's Total is aggregate work time and may exceed
// the request's wall time; the stage set stays disjoint, so Totals remain
// comparable with each other. Hot fan-out loops should batch through an
// Accum (one per worker) and Flush at stage end rather than contending on
// the recorder per item.
type Recorder struct {
	mu     sync.Mutex
	stages map[string]*StageStat

	// cs aggregates the typed work counters merged in by worker Accums (or
	// directly via MergeCounterSet); csMu serializes the merges.
	csMu sync.Mutex
	cs   CounterSet
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{stages: make(map[string]*StageStat)}
}

// Span is one in-flight stage timing. The zero Span (from a nil Recorder)
// is valid and End is a no-op on it.
type Span struct {
	rec   *Recorder
	stage string
	start time.Time
}

// Start opens a span under the stage name. On a nil recorder it returns
// the zero Span without reading the clock.
func (r *Recorder) Start(stage string) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, stage: stage, start: time.Now()}
}

// End records the span's elapsed wall time onto its recorder.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	s.rec.observe(s.stage, time.Since(s.start))
}

func (r *Recorder) observe(stage string, d time.Duration) {
	r.merge(stage, StageStat{Count: 1, Total: d, Max: d})
}

// merge folds a pre-aggregated stat (one span, or a worker's Accum batch)
// into the stage.
func (r *Recorder) merge(stage string, add StageStat) {
	r.mu.Lock()
	st := r.stages[stage]
	if st == nil {
		st = &StageStat{}
		r.stages[stage] = st
	}
	st.Count += add.Count
	st.Total += add.Total
	if add.Max > st.Max {
		st.Max = add.Max
	}
	r.mu.Unlock()
}

// Stages returns a copy of the per-stage aggregates.
func (r *Recorder) Stages() map[string]StageStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]StageStat, len(r.stages))
	for name, st := range r.stages {
		out[name] = *st
	}
	return out
}

// StageMillis returns the total wall time per stage in milliseconds — the
// shape served as a detect response's stage_timings.
func (r *Recorder) StageMillis() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.stages))
	for name, st := range r.stages {
		out[name] = float64(st.Total) / float64(time.Millisecond)
	}
	return out
}

// MergeFrom folds another recorder's stage aggregates and typed counters
// into r — how a batch request rolls its per-item recorders up into one
// batch-level view whose stage totals and algo counters sum over items.
// No-op when either recorder is nil. The source recorder is read under its
// own locks, so merging while other goroutines still write to it is safe
// (their late writes are simply not picked up).
func (r *Recorder) MergeFrom(other *Recorder) {
	if r == nil || other == nil {
		return
	}
	for name, st := range other.Stages() {
		r.merge(name, st)
	}
	other.csMu.Lock()
	cs := other.cs
	other.csMu.Unlock()
	if !cs.Zero() {
		r.MergeCounterSet(&cs)
	}
}

// MergeCounterSet folds a typed counter batch into the recorder. No-op on
// a nil recorder or nil batch.
func (r *Recorder) MergeCounterSet(cs *CounterSet) {
	if r == nil || cs == nil {
		return
	}
	r.csMu.Lock()
	r.cs.Merge(cs)
	r.csMu.Unlock()
}

// CounterSetSnapshot returns a copy of the merged typed counters, or nil
// when the recorder is nil or nothing was counted.
func (r *Recorder) CounterSetSnapshot() *CounterSet {
	if r == nil {
		return nil
	}
	r.csMu.Lock()
	cs := r.cs
	r.csMu.Unlock()
	if cs.Zero() {
		return nil
	}
	return &cs
}

// StageView is the wire shape of one stage aggregate: count, summed and
// max wall time in milliseconds.
type StageView struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// StageViews returns the per-stage aggregates in wire shape — the form
// flight-recorder entries and debug handlers serve.
func (r *Recorder) StageViews() map[string]StageView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]StageView, len(r.stages))
	for name, st := range r.stages {
		out[name] = StageView{
			Count:   st.Count,
			TotalMS: float64(st.Total) / float64(time.Millisecond),
			MaxMS:   float64(st.Max) / float64(time.Millisecond),
		}
	}
	return out
}

// Accum batches span and counter observations locally for one worker of a
// parallel stage, so the fan-out touches the shared recorder once per
// Flush instead of once per component or tree. Not safe for concurrent
// use — each worker owns its own Accum — and nil-safe throughout, so the
// no-recorder fast path stays a pointer check.
type Accum struct {
	rec    *Recorder
	stages map[string]*StageStat
	cs     CounterSet
}

// NewAccum returns a local accumulator bound to the recorder. On a nil
// recorder it returns nil, on which every Accum method no-ops.
func (r *Recorder) NewAccum() *Accum {
	if r == nil {
		return nil
	}
	return &Accum{rec: r, stages: make(map[string]*StageStat)}
}

// AccumSpan is one in-flight stage timing on an Accum. The zero AccumSpan
// (from a nil Accum) is valid and End is a no-op on it.
type AccumSpan struct {
	acc   *Accum
	stage string
	start time.Time
}

// Start opens a local span under the stage name. On a nil Accum it returns
// the zero AccumSpan without reading the clock.
func (a *Accum) Start(stage string) AccumSpan {
	if a == nil {
		return AccumSpan{}
	}
	return AccumSpan{acc: a, stage: stage, start: time.Now()}
}

// End folds the span's elapsed wall time into its Accum (no locking).
func (s AccumSpan) End() {
	if s.acc == nil {
		return
	}
	d := time.Since(s.start)
	st := s.acc.stages[s.stage]
	if st == nil {
		st = &StageStat{}
		s.acc.stages[s.stage] = st
	}
	st.Count++
	st.Total += d
	if d > st.Max {
		st.Max = d
	}
}

// CS returns the Accum's typed counter batch for hot kernels to write
// directly (it is merged into the recorder at Flush), or nil on a nil
// Accum — callers hand the result to nil-tolerant sinks.
func (a *Accum) CS() *CounterSet {
	if a == nil {
		return nil
	}
	return &a.cs
}

// Flush merges everything batched so far into the recorder and resets the
// Accum for reuse. Safe to call concurrently with other workers' flushes
// (the recorder serializes), but not with this Accum's own spans or writes
// to its CS.
func (a *Accum) Flush() {
	if a == nil {
		return
	}
	for name, st := range a.stages {
		a.rec.merge(name, *st)
		delete(a.stages, name)
	}
	if !a.cs.Zero() {
		a.rec.MergeCounterSet(&a.cs)
		a.cs = CounterSet{}
	}
}

type recorderKey struct{}

// WithRecorder attaches a recorder to the context for the pipeline below.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom returns the context's recorder, or nil when none is
// attached. Hot loops call this once up front and use the (nil-safe)
// recorder methods directly rather than re-resolving per iteration.
func RecorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// Start opens a span on the context's recorder, if any. Convenience for
// cold paths; hot loops hold the recorder directly.
func Start(ctx context.Context, stage string) Span {
	return RecorderFrom(ctx).Start(stage)
}

type traceIDKey struct{}

// WithTraceID attaches a request-scoped trace ID to the context.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the context's trace ID, or "" when none is attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// NewTraceID returns a 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable noise; a fixed ID keeps the
		// request serviceable and is visibly wrong in logs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
