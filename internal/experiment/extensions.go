package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// These experiments go beyond the paper's evaluation section: robustness
// to unknown states (the "?" observations the problem setting allows but
// the paper never stresses), sensitivity to the boosting coefficient α,
// and runtime scaling — the natural follow-ups a practitioner asks for.

// MaskSweepResult measures RID quality as observations degrade.
type MaskSweepResult struct {
	Workload  Workload
	Fractions []float64
	Rows      []MethodScore // one per fraction
	StateAcc  []metrics.Summary
}

// MaskSweep runs RID at the workload's β while hiding a growing fraction
// of infected node states as "?".
func MaskSweep(w Workload, beta float64, fractions []float64) (*MaskSweepResult, error) {
	w = w.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.2, 0.4, 0.6, 0.8}
	}
	res := &MaskSweepResult{Workload: w, Fractions: fractions}
	for _, frac := range fractions {
		wf := w
		wf.MaskFraction = frac
		instances, err := wf.instances()
		if err != nil {
			return nil, err
		}
		rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: beta, Parallelism: w.Parallelism})
		if err != nil {
			return nil, err
		}
		ms, err := evalDetector(rid, instances)
		if err != nil {
			return nil, err
		}
		ms.Method = fmt.Sprintf("RID(%g) mask=%g", beta, frac)
		res.Rows = append(res.Rows, ms)
		var accs []float64
		for _, in := range instances {
			det, err := rid.Detect(in.Snap)
			if err != nil {
				return nil, err
			}
			st, err := metrics.EvalStates(det.Initiators, det.States, in.Seeds, in.States)
			if err != nil {
				return nil, err
			}
			if st.Compared > 0 {
				accs = append(accs, st.Accuracy)
			}
		}
		res.StateAcc = append(res.StateAcc, metrics.Summarize(accs))
	}
	return res, nil
}

// Render writes the mask sweep as text.
func (r *MaskSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Mask sweep — %s: RID quality vs unknown-state fraction (trials=%d)\n",
		r.Workload.Dataset, r.Workload.Trials)
	fmt.Fprintf(w, "%6s %12s %18s %18s %18s %18s\n", "mask", "detected", "precision", "recall", "F1", "state-acc")
	for i, frac := range r.Fractions {
		row := r.Rows[i]
		fmt.Fprintf(w, "%6.2f %12.1f %18s %18s %18s %18s\n",
			frac, row.Detected.Mean, row.Precision, row.Recall, row.F1, r.StateAcc[i])
	}
}

// HiddenSweepResult measures RID quality when infections themselves go
// unobserved (nodes vanish from the infected subgraph), a harsher
// degradation than unknown states.
type HiddenSweepResult struct {
	Workload  Workload
	Fractions []float64
	Rows      []MethodScore
}

// HiddenSweep hides a growing fraction of infected nodes entirely and
// reports RID detection quality against the FULL ground truth (so recall
// includes the initiators that became invisible — the honest number a
// practitioner cares about).
func HiddenSweep(w Workload, beta float64, fractions []float64) (*HiddenSweepResult, error) {
	w = w.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.1, 0.2, 0.4}
	}
	instances, err := w.instances()
	if err != nil {
		return nil, err
	}
	rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: beta, Parallelism: w.Parallelism})
	if err != nil {
		return nil, err
	}
	res := &HiddenSweepResult{Workload: w, Fractions: fractions}
	for _, frac := range fractions {
		var det, prec, rec, f1 []float64
		for ti, in := range instances {
			hideRng := xrand.New(w.BaseSeed + uint64(ti)*31 + uint64(frac*1000))
			hidden := diffusion.HideInfected(in.Cascade.States, frac, hideRng)
			snap, err := cascade.NewSnapshot(in.Snap.G, hidden)
			if err != nil {
				return nil, err
			}
			d, err := rid.Detect(snap)
			if err != nil {
				return nil, err
			}
			id := metrics.EvalIdentity(d.Initiators, in.Seeds)
			det = append(det, float64(id.Detected))
			prec = append(prec, id.Precision)
			rec = append(rec, id.Recall)
			f1 = append(f1, id.F1)
		}
		res.Rows = append(res.Rows, MethodScore{
			Method:    fmt.Sprintf("RID(%g) hidden=%g", beta, frac),
			Detected:  metrics.Summarize(det),
			Precision: metrics.Summarize(prec),
			Recall:    metrics.Summarize(rec),
			F1:        metrics.Summarize(f1),
		})
	}
	return res, nil
}

// Render writes the hidden-infection sweep as text.
func (r *HiddenSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Hidden-infection sweep — %s: RID quality vs unobserved-infection fraction (trials=%d)\n",
		r.Workload.Dataset, r.Workload.Trials)
	fmt.Fprintf(w, "%7s %12s %18s %18s %18s\n", "hidden", "detected", "precision", "recall", "F1")
	for i, frac := range r.Fractions {
		row := r.Rows[i]
		fmt.Fprintf(w, "%7.2f %12.1f %18s %18s %18s\n",
			frac, row.Detected.Mean, row.Precision, row.Recall, row.F1)
	}
}

// AlphaSweepResult measures detection quality against the boosting
// coefficient used by the detector, with the data generated at the
// workload's α (a model-mismatch study when they differ).
type AlphaSweepResult struct {
	Workload Workload
	Alphas   []float64
	Rows     []MethodScore
}

// AlphaSweep evaluates RID configured with each α in alphas against
// cascades simulated at the workload's α.
func AlphaSweep(w Workload, beta float64, alphas []float64) (*AlphaSweepResult, error) {
	w = w.withDefaults()
	if len(alphas) == 0 {
		alphas = []float64{1, 2, 3, 4, 5}
	}
	instances, err := w.instances()
	if err != nil {
		return nil, err
	}
	res := &AlphaSweepResult{Workload: w, Alphas: alphas}
	for _, alpha := range alphas {
		rid, err := core.NewRID(core.RIDConfig{Alpha: alpha, Beta: beta, Parallelism: w.Parallelism})
		if err != nil {
			return nil, err
		}
		ms, err := evalDetector(rid, instances)
		if err != nil {
			return nil, err
		}
		ms.Method = fmt.Sprintf("RID α=%g", alpha)
		res.Rows = append(res.Rows, ms)
	}
	return res, nil
}

// Render writes the alpha sweep as text.
func (r *AlphaSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Alpha sweep — %s: detector α vs data α=%g (trials=%d)\n",
		r.Workload.Dataset, r.Workload.Alpha, r.Workload.Trials)
	fmt.Fprintf(w, "%6s %12s %18s %18s %18s\n", "alpha", "detected", "precision", "recall", "F1")
	for i, alpha := range r.Alphas {
		row := r.Rows[i]
		fmt.Fprintf(w, "%6.1f %12.1f %18s %18s %18s\n",
			alpha, row.Detected.Mean, row.Precision, row.Recall, row.F1)
	}
}

// RankingResult measures RID's confidence ranking: precision among the
// top-k suspects when ordered by detection confidence, for several k.
type RankingResult struct {
	Workload Workload
	Beta     float64
	Ks       []int
	// PrecisionAt[i] aggregates precision@Ks[i] over trials; Overall is
	// the unranked precision for reference.
	PrecisionAt []metrics.Summary
	Overall     metrics.Summary
}

// Ranking evaluates RID's confidence scores as a triage ranking.
func Ranking(w Workload, beta float64, ks []int) (*RankingResult, error) {
	w = w.withDefaults()
	if len(ks) == 0 {
		ks = []int{5, 10, 25, 50}
	}
	instances, err := w.instances()
	if err != nil {
		return nil, err
	}
	rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: beta, Parallelism: w.Parallelism})
	if err != nil {
		return nil, err
	}
	res := &RankingResult{Workload: w, Beta: beta, Ks: ks}
	at := make([][]float64, len(ks))
	var overall []float64
	for _, in := range instances {
		det, err := rid.Detect(in.Snap)
		if err != nil {
			return nil, err
		}
		ranked := det.Ranked()
		for i, k := range ks {
			at[i] = append(at[i], metrics.PrecisionAtK(ranked, in.Seeds, k))
		}
		overall = append(overall, metrics.EvalIdentity(det.Initiators, in.Seeds).Precision)
	}
	for i := range ks {
		res.PrecisionAt = append(res.PrecisionAt, metrics.Summarize(at[i]))
	}
	res.Overall = metrics.Summarize(overall)
	return res, nil
}

// Render writes the ranking study as text.
func (r *RankingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Confidence ranking — %s: RID(%g) precision@k (trials=%d, overall precision %s)\n",
		r.Workload.Dataset, r.Beta, r.Workload.Trials, r.Overall)
	fmt.Fprintf(w, "%6s %18s\n", "k", "precision@k")
	for i, k := range r.Ks {
		fmt.Fprintf(w, "%6d %18s\n", k, r.PrecisionAt[i])
	}
}

// TimingSweepResult measures how partial timing metadata (an extension
// beyond the paper's state-only snapshots) improves detection: with both
// endpoints timestamped, backward-in-time candidate activation links are
// pruned before forest extraction.
type TimingSweepResult struct {
	Workload  Workload
	Fractions []float64 // fraction of infected nodes with known timestamps
	Rows      []MethodScore
}

// TimingSweep reveals a growing fraction of first-infection rounds and
// reruns RID.
func TimingSweep(w Workload, beta float64, fractions []float64) (*TimingSweepResult, error) {
	w = w.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1.0}
	}
	instances, err := w.instances()
	if err != nil {
		return nil, err
	}
	rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: beta, Parallelism: w.Parallelism})
	if err != nil {
		return nil, err
	}
	res := &TimingSweepResult{Workload: w, Fractions: fractions}
	for _, frac := range fractions {
		var det, prec, rec, f1 []float64
		for ti, in := range instances {
			rng := xrand.New(w.BaseSeed + uint64(ti)*17 + uint64(frac*1000))
			rounds := diffusion.SampleRounds(in.Cascade, frac, rng)
			snap, err := cascade.NewSnapshotWithRounds(in.Snap.G, in.Snap.States, rounds)
			if err != nil {
				return nil, err
			}
			d, err := rid.Detect(snap)
			if err != nil {
				return nil, err
			}
			id := metrics.EvalIdentity(d.Initiators, in.Seeds)
			det = append(det, float64(id.Detected))
			prec = append(prec, id.Precision)
			rec = append(rec, id.Recall)
			f1 = append(f1, id.F1)
		}
		res.Rows = append(res.Rows, MethodScore{
			Method:    fmt.Sprintf("RID(%g) timing=%g", beta, frac),
			Detected:  metrics.Summarize(det),
			Precision: metrics.Summarize(prec),
			Recall:    metrics.Summarize(rec),
			F1:        metrics.Summarize(f1),
		})
	}
	return res, nil
}

// Render writes the timing sweep as text.
func (r *TimingSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Timing sweep — %s: RID quality vs fraction of known timestamps (trials=%d)\n",
		r.Workload.Dataset, r.Workload.Trials)
	fmt.Fprintf(w, "%7s %12s %18s %18s %18s\n", "timing", "detected", "precision", "recall", "F1")
	for i, frac := range r.Fractions {
		row := r.Rows[i]
		fmt.Fprintf(w, "%7.2f %12.1f %18s %18s %18s\n",
			frac, row.Detected.Mean, row.Precision, row.Recall, row.F1)
	}
}

// DensityPoint measures how cascade overlap changes the problem.
type DensityPoint struct {
	SeedFraction float64
	Infected     metrics.Summary
	Trees        metrics.Summary
	TreeRecall   metrics.Summary // RID-Tree recall: the overlap indicator
	RIDF1        metrics.Summary
	TreeF1       metrics.Summary
}

// DensityResult is the seed-density sweep: as initiators get denser their
// cascades merge, the forest-roots baseline collapses (recall → the paper's
// 13% regime) and breaking trees — RID's whole point — starts to matter.
// This sweep documents the workload calibration of EXPERIMENTS.md §6.
type DensityResult struct {
	Workload Workload
	Points   []DensityPoint
}

// DensitySweep varies the seed fraction and reports overlap and detection
// quality.
func DensitySweep(w Workload, beta float64, fractions []float64) (*DensityResult, error) {
	w = w.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0.005, 0.01, 0.02, 0.05, 0.1}
	}
	rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: beta, Parallelism: w.Parallelism})
	if err != nil {
		return nil, err
	}
	tree, err := core.NewRIDTree(w.Alpha)
	if err != nil {
		return nil, err
	}
	res := &DensityResult{Workload: w}
	for _, frac := range fractions {
		wf := w
		wf.SeedFraction = frac
		instances, err := wf.instances()
		if err != nil {
			return nil, err
		}
		var infected, trees, treeRecall, ridF1, treeF1 []float64
		for _, in := range instances {
			infected = append(infected, float64(in.Infected))
			dr, err := rid.Detect(in.Snap)
			if err != nil {
				return nil, err
			}
			dt, err := tree.DetectContext(context.TODO(), in.Snap)
			if err != nil {
				return nil, err
			}
			trees = append(trees, float64(dt.Trees))
			treeRecall = append(treeRecall, metrics.EvalIdentity(dt.Initiators, in.Seeds).Recall)
			ridF1 = append(ridF1, metrics.EvalIdentity(dr.Initiators, in.Seeds).F1)
			treeF1 = append(treeF1, metrics.EvalIdentity(dt.Initiators, in.Seeds).F1)
		}
		res.Points = append(res.Points, DensityPoint{
			SeedFraction: frac,
			Infected:     metrics.Summarize(infected),
			Trees:        metrics.Summarize(trees),
			TreeRecall:   metrics.Summarize(treeRecall),
			RIDF1:        metrics.Summarize(ridF1),
			TreeF1:       metrics.Summarize(treeF1),
		})
	}
	return res, nil
}

// Render writes the density sweep as text.
func (r *DensityResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Seed-density sweep — %s: cascade overlap vs detectability (trials=%d)\n",
		r.Workload.Dataset, r.Workload.Trials)
	fmt.Fprintf(w, "%8s %10s %8s %12s %10s %10s\n",
		"seeds%", "infected", "trees", "tree-recall", "RID-F1", "tree-F1")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%7.1f%% %10.1f %8.1f %12.3f %10.3f %10.3f\n",
			100*p.SeedFraction, p.Infected.Mean, p.Trees.Mean,
			p.TreeRecall.Mean, p.RIDF1.Mean, p.TreeF1.Mean)
	}
}

// ScalingPoint is one scale's timing measurement.
type ScalingPoint struct {
	Scale            float64
	Nodes, Edges     int
	Infected         int
	SimulateDuration time.Duration
	DetectDuration   time.Duration
	F1               float64
}

// ScalingResult measures end-to-end runtime as the network grows.
type ScalingResult struct {
	Workload Workload
	Points   []ScalingPoint
}

// Scaling runs one simulate+detect cycle per scale and reports wall-clock
// durations — the practical answer to "does this reach Table II size?".
func Scaling(w Workload, beta float64, scales []float64) (*ScalingResult, error) {
	w = w.withDefaults()
	if len(scales) == 0 {
		scales = []float64{0.01, 0.02, 0.05, 0.1}
	}
	res := &ScalingResult{Workload: w}
	for _, scale := range scales {
		ws := w
		ws.Scale = scale
		ws.Trials = 1
		start := time.Now()
		in, err := ws.Run(0)
		if err != nil {
			return nil, err
		}
		simDur := time.Since(start)
		rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: beta, Parallelism: w.Parallelism})
		if err != nil {
			return nil, err
		}
		start = time.Now()
		det, err := rid.Detect(in.Snap)
		if err != nil {
			return nil, err
		}
		detDur := time.Since(start)
		id := metrics.EvalIdentity(det.Initiators, in.Seeds)
		res.Points = append(res.Points, ScalingPoint{
			Scale:            scale,
			Nodes:            in.Snap.G.NumNodes(),
			Edges:            in.Snap.G.NumEdges(),
			Infected:         in.Infected,
			SimulateDuration: simDur,
			DetectDuration:   detDur,
			F1:               id.F1,
		})
	}
	return res, nil
}

// Render writes the scaling study as text.
func (r *ScalingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Scaling — %s: wall clock per stage\n", r.Workload.Dataset)
	fmt.Fprintf(w, "%7s %9s %9s %9s %12s %12s %7s\n", "scale", "nodes", "edges", "infected", "simulate", "detect", "F1")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%7.3f %9d %9d %9d %12s %12s %7.3f\n",
			p.Scale, p.Nodes, p.Edges, p.Infected,
			p.SimulateDuration.Round(time.Millisecond),
			p.DetectDuration.Round(time.Millisecond), p.F1)
	}
}
