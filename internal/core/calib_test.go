package core

import (
	"context"
	"testing"

	"repro/internal/metrics"
)

// TestCalibrationSweep is a diagnostic (not an assertion) that prints the
// precision/recall/F1 trade-off across beta on a heavy-overlap workload,
// used to calibrate the experiment harness against the paper's figures.
func TestCalibrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	sim := simulate(t, 42, 3000, 19500, 150)
	t.Logf("infected=%d seeds=%d", len(sim.snap.Infected()), len(sim.seeds))
	tree := mustRIDTree(t)
	dt, err := tree.DetectContext(context.Background(), sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	idT := metrics.EvalIdentity(dt.Initiators, sim.seeds)
	t.Logf("RID-Tree: trees=%d det=%d P=%.3f R=%.3f F1=%.3f", dt.Trees, len(dt.Initiators), idT.Precision, idT.Recall, idT.F1)
	dp, err := RIDPositive{}.DetectContext(context.Background(), sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	idP := metrics.EvalIdentity(dp.Initiators, sim.seeds)
	t.Logf("RID-Positive: trees=%d det=%d P=%.3f R=%.3f F1=%.3f", dp.Trees, len(dp.Initiators), idP.Precision, idP.Recall, idP.F1)
	for _, obj := range []Objective{ObjectiveLocal, ObjectivePartition} {
		for _, beta := range []float64{0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 2, 3, 5} {
			rid, err := NewRID(RIDConfig{Alpha: 3, Beta: beta, Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			det, err := rid.Detect(sim.snap)
			if err != nil {
				t.Fatal(err)
			}
			id := metrics.EvalIdentity(det.Initiators, sim.seeds)
			t.Logf("obj=%d beta=%.2f det=%d P=%.3f R=%.3f F1=%.3f", obj, beta, len(det.Initiators), id.Precision, id.Recall, id.F1)
		}
	}
}
