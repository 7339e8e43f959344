// Package experiment regenerates every table and figure of the paper's
// evaluation section (Section IV) on the synthetic dataset stand-ins:
// Table II (network properties), Figure 4 (precision/recall/F1 of RID
// variants and baselines), Figure 5 (detection quality across β), Figure 6
// (initial-state inference across β) and the Section IV-B3 diffusion
// analysis. Each runner returns structured results and can render the
// paper-style rows as text; the cmd/experiments binary drives them all.
package experiment

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diffusion"
	"repro/internal/metrics"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// DefaultBaseSeed is the BaseSeed a zero Workload gets: ICDCS 2017's
// opening day. Exported so drivers can report the effective seed when the
// user doesn't override it.
const DefaultBaseSeed = 20170605

// Workload describes one batch of simulated ISOMIT instances, following
// the experimental protocol of Section IV-B3: sample N rumor initiators,
// assign initial states by positive ratio θ, run MFC with boosting α over
// the Jaccard-weighted diffusion network, and hand the resulting snapshot
// to the detectors.
type Workload struct {
	// Dataset names the network preset ("Epinions" or "Slashdot").
	Dataset string
	// Scale shrinks the Table II network size (1.0 = full). Experiments
	// default to 0.02 so the whole suite runs in seconds; pass 1.0 to
	// regenerate at paper scale.
	Scale float64
	// SeedFraction sets N = SeedFraction·nodes. The paper fixes N = 1000
	// (≈0.8% of Epinions); on the synthetic stand-ins a fraction of 0.05
	// reproduces the paper's cascade-overlap regime (RID-Tree recall
	// ≈13%, see EXPERIMENTS.md) and is the default.
	SeedFraction float64
	// Theta is the positive ratio θ of initiator states (paper: 0.5).
	Theta float64
	// Alpha is the MFC asymmetric boosting coefficient (paper: 3).
	Alpha float64
	// MaskFraction hides this fraction of infected node states as "?".
	MaskFraction float64
	// Trials averages results over this many independent simulations.
	Trials int
	// BaseSeed derives all randomness; same seed, same results.
	BaseSeed uint64
	// Parallelism is forwarded to every RID detector the experiment builds
	// (core.RIDConfig.Parallelism): zero means GOMAXPROCS, 1 forces the
	// serial pipeline. Results are bit-identical at every setting — trials
	// already run concurrently regardless, so this mostly matters for
	// single-trial runs and for pinning CPU use.
	Parallelism int
}

func (w Workload) withDefaults() Workload {
	if w.Dataset == "" {
		w.Dataset = "Epinions"
	}
	if w.Scale == 0 {
		w.Scale = 0.02
	}
	if w.SeedFraction == 0 {
		w.SeedFraction = 0.05
	}
	if w.Theta == 0 {
		w.Theta = 0.5
	}
	if w.Alpha == 0 {
		w.Alpha = 3
	}
	if w.Trials == 0 {
		w.Trials = 3
	}
	if w.BaseSeed == 0 {
		w.BaseSeed = DefaultBaseSeed
	}
	return w
}

func (w Workload) validate() error {
	if w.Scale < 0 || w.Scale > 1 {
		return fmt.Errorf("experiment: Scale must be in (0,1], got %g", w.Scale)
	}
	if w.SeedFraction <= 0 || w.SeedFraction > 0.5 {
		return fmt.Errorf("experiment: SeedFraction must be in (0,0.5], got %g", w.SeedFraction)
	}
	if w.Theta < 0 || w.Theta > 1 {
		return fmt.Errorf("experiment: Theta must be in [0,1], got %g", w.Theta)
	}
	if w.Alpha < 1 {
		return fmt.Errorf("experiment: Alpha must be >= 1, got %g", w.Alpha)
	}
	if w.MaskFraction < 0 || w.MaskFraction > 1 {
		return fmt.Errorf("experiment: MaskFraction must be in [0,1], got %g", w.MaskFraction)
	}
	if w.Trials < 1 {
		return fmt.Errorf("experiment: Trials must be positive, got %d", w.Trials)
	}
	return nil
}

// Instance is one simulated ground-truth cascade plus its snapshot.
type Instance struct {
	Snap     *cascade.Snapshot
	Seeds    []int
	States   []sgraph.State
	Cascade  *diffusion.Cascade
	Infected int
}

// Run simulates trial number i of the workload.
func (w Workload) Run(trial int) (*Instance, error) {
	w = w.withDefaults()
	if err := w.validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(w.BaseSeed + uint64(trial)*0x9e37)
	g, err := dataset.Load(w.Dataset, w.Scale, rng)
	if err != nil {
		return nil, err
	}
	dif := g.Reverse()
	n := dif.NumNodes()
	count := int(w.SeedFraction * float64(n))
	if count < 1 {
		count = 1
	}
	seeds, states, err := diffusion.SampleInitiators(n, count, w.Theta, rng)
	if err != nil {
		return nil, err
	}
	c, err := diffusion.MFC(dif, seeds, states, diffusion.MFCConfig{Alpha: w.Alpha}, rng)
	if err != nil {
		return nil, err
	}
	observed := c.States
	if w.MaskFraction > 0 {
		observed = diffusion.MaskStates(c.States, w.MaskFraction, rng)
	}
	snap, err := cascade.NewSnapshot(dif, observed)
	if err != nil {
		return nil, err
	}
	return &Instance{Snap: snap, Seeds: seeds, States: states, Cascade: c, Infected: c.NumInfected()}, nil
}

// MethodScore aggregates one detector's identity metrics across trials.
type MethodScore struct {
	Method    string
	Detected  metrics.Summary
	Precision metrics.Summary
	Recall    metrics.Summary
	F1        metrics.Summary
}

// evalDetector runs one detector over all trial instances.
func evalDetector(d core.Detector, instances []*Instance) (MethodScore, error) {
	var det, prec, rec, f1 []float64
	for _, in := range instances {
		res, err := d.DetectContext(context.TODO(), in.Snap)
		if err != nil {
			return MethodScore{}, fmt.Errorf("experiment: %s: %w", d.Name(), err)
		}
		id := metrics.EvalIdentity(res.Initiators, in.Seeds)
		det = append(det, float64(id.Detected))
		prec = append(prec, id.Precision)
		rec = append(rec, id.Recall)
		f1 = append(f1, id.F1)
	}
	return MethodScore{
		Method:    d.Name(),
		Detected:  metrics.Summarize(det),
		Precision: metrics.Summarize(prec),
		Recall:    metrics.Summarize(rec),
		F1:        metrics.Summarize(f1),
	}, nil
}

// instances materializes all trials of a workload, in parallel: each trial
// is seeded independently and stored by index, so the result is identical
// to the serial loop.
func (w Workload) instances() ([]*Instance, error) {
	w = w.withDefaults()
	out := make([]*Instance, w.Trials)
	errs := make([]error, w.Trials)
	var wg sync.WaitGroup
	for t := 0; t < w.Trials; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			out[t], errs[t] = w.Run(t)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
