package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/obs"
	"repro/internal/sgraph"
)

// TestDetectStageCoverage runs one full RID detect with a recorder
// attached and asserts that the recorded stage set covers the pipeline of
// Sections III-C/E — component split, arborescence extraction, tree
// assembly and the per-tree DP — and that the per-stage wall times sum to
// no more than the end-to-end detect time (the stages are disjoint by
// construction).
func TestDetectStageCoverage(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	rid := mustRID(t, 0.3)

	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	start := time.Now()
	det, err := rid.DetectContext(ctx, sim.snap)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Initiators) == 0 {
		t.Fatal("no initiators detected; fixture too small")
	}

	stages := rec.Stages()
	for _, want := range []string{
		obs.StageComponents, obs.StageArborescence, obs.StageTreeBuild, obs.StageTreeDP,
	} {
		if stages[want].Count == 0 {
			t.Errorf("stage %q not recorded; got %v", want, stages)
		}
	}
	var sum time.Duration
	for name, st := range stages {
		if st.Total < 0 || st.Max > st.Total {
			t.Errorf("stage %q has implausible aggregates %+v", name, st)
		}
		sum += st.Total
	}
	if sum > elapsed {
		t.Errorf("stage durations sum to %v > end-to-end %v; stages overlap", sum, elapsed)
	}

	checkCountInvariants(t, sim.snap, det, rec.CounterSetSnapshot(), 1, true)
}

// TestDetectStageCoverageBudgetDP asserts the budget-DP path records the
// binarize stage and the fallback counter for oversized trees.
func TestDetectStageCoverageBudgetDP(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	rid, err := NewRID(RIDConfig{
		Alpha: 3, Beta: 0.3, Objective: ObjectivePartition,
		UseBudgetDP: true, MaxBudgetTreeSize: 4, // tiny cap: force fallbacks
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := rid.DetectContext(ctx, sim.snap); err != nil {
		t.Fatal(err)
	}
	stages := rec.Stages()
	if stages[obs.StageBinarize].Count == 0 && rec.CounterSetSnapshot().ISOMIT.BudgetFallbacks == 0 {
		t.Error("budget-DP run recorded neither binarize spans nor fallbacks")
	}
	if stages[obs.StageTreeDP].Count == 0 {
		t.Error("tree_dp stage not recorded on the budget path")
	}
}

// checkCountInvariants asserts what a recorded detect's typed counters
// must say about the work it did, runs times over (the ensemble runs its
// RID pipeline once per β):
//   - every infected node lands in exactly one solved component;
//   - the component and tree counts match the detection's;
//   - the trees span the infected subgraph (TreeSize.Sum);
//   - the arborescence solver staged every candidate edge plus one virtual
//     root edge per node (the fixture has no self-loops to filter);
//   - with dp, every tree node costs at least one DP cell.
func checkCountInvariants(t *testing.T, snap *cascade.Snapshot, det *Detection, cs *obs.CounterSet, runs int64, dp bool) {
	t.Helper()
	if cs == nil {
		t.Fatal("detect recorded no counters")
	}
	c := cs.Cascade
	infected := int64(len(snap.Infected()))
	if c.InfectedNodes != runs*infected {
		t.Errorf("InfectedNodes = %d, want %d×%d infected nodes", c.InfectedNodes, runs, infected)
	}
	if c.Components != runs*int64(det.Components) || c.Trees != runs*int64(det.Trees) {
		t.Errorf("Components/Trees = %d/%d, want %d×%d/%d", c.Components, c.Trees, runs, det.Components, det.Trees)
	}
	if got := c.TreeSize.Count(); got != c.Trees {
		t.Errorf("TreeSize observations = %d, want Trees %d", got, c.Trees)
	}
	if c.TreeSize.Sum != c.InfectedNodes {
		t.Errorf("TreeSize.Sum = %d, want InfectedNodes %d: the forest spans the infected subgraph",
			c.TreeSize.Sum, c.InfectedNodes)
	}
	if c.CandidateEdges == 0 || c.CandidateEdges != cs.Arbor.EdgesStaged-c.InfectedNodes {
		t.Errorf("CandidateEdges = %d, want EdgesStaged %d − InfectedNodes %d",
			c.CandidateEdges, cs.Arbor.EdgesStaged, c.InfectedNodes)
	}
	// One Tarjan solve per component, via the pooled extraction solvers.
	if cs.Arbor.TarjanSolves != c.Components {
		t.Errorf("TarjanSolves = %d, want %d (one per component)", cs.Arbor.TarjanSolves, c.Components)
	}
	if c.EdgesScanned < c.CandidateEdges {
		t.Errorf("EdgesScanned %d < CandidateEdges %d", c.EdgesScanned, c.CandidateEdges)
	}
	if dp && cs.ISOMIT.DPCells < c.InfectedNodes {
		t.Errorf("DPCells %d < InfectedNodes %d: every node costs at least one cell",
			cs.ISOMIT.DPCells, c.InfectedNodes)
	}
}

// TestDetectCounterSet runs every detector through a recorded detect and
// checks its typed counters: the extracting pipelines against the
// detection and the snapshot (checkCountInvariants), the per-component
// center comparators for counting nothing.
func TestDetectCounterSet(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	for u := 0; u < sim.snap.G.NumNodes(); u++ {
		sim.snap.G.Out(u, func(e sgraph.Edge) {
			if e.To == u {
				t.Fatalf("fixture has a self-loop at %d; the EdgesStaged invariant assumes none", u)
			}
		})
	}
	// runs is how many times a detector extracts the forest; 0 means its
	// pipeline does not extract. Every registered name must be listed.
	runs := map[string]int64{
		"rid": 1, "rid-tree": 1, "rid-positive": 1, "ensemble": 3,
		"rumor-centrality": 0, "jordan-center": 0, "degree-max": 0,
	}
	for _, name := range DetectorNames() {
		t.Run(name, func(t *testing.T) {
			n, ok := runs[name]
			if !ok {
				t.Fatalf("detector %q has no entry in the runs table", name)
			}
			d, err := NewDetector(name, RIDConfig{Alpha: 3, Beta: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder()
			det, err := d.DetectContext(obs.WithRecorder(context.Background(), rec), sim.snap)
			if err != nil {
				t.Fatal(err)
			}
			cs := rec.CounterSetSnapshot()
			if n == 0 {
				if cs != nil {
					t.Fatalf("non-extracting detector counted %+v", cs)
				}
				return
			}
			rid := name == "rid" || name == "ensemble"
			checkCountInvariants(t, sim.snap, det, cs, n, rid)
			if rid {
				// The default objective solves every tree with the local rule.
				if cs.ISOMIT.LocalSolves != cs.Cascade.Trees {
					t.Errorf("LocalSolves = %d, want Trees %d", cs.ISOMIT.LocalSolves, cs.Cascade.Trees)
				}
			} else if cs.ISOMIT != (obs.ISOMITCounters{}) {
				t.Errorf("root-only baseline counted DP work: %+v", cs.ISOMIT)
			}
		})
	}
}

// TestDetectCounterSetBudgetDP asserts the auto budget path counts its DP
// modes, k-selection rounds and one fallback per oversized tree, on top
// of the extraction invariants.
func TestDetectCounterSetBudgetDP(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	rid, err := NewRID(RIDConfig{
		Alpha: 3, Beta: 0.3, Objective: ObjectivePartition,
		UseBudgetDP: true, MaxBudgetTreeSize: 4, // tiny cap: force fallbacks
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	det, err := rid.DetectContext(ctx, sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	cs := rec.CounterSetSnapshot()
	checkCountInvariants(t, sim.snap, det, cs, 1, true)
	forest, err := rid.Extract(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	var oversized, small int64
	for _, tree := range forest.Trees {
		if tree.Len() > 4 {
			oversized++
		} else {
			small++
		}
	}
	if oversized == 0 || small == 0 {
		t.Fatalf("fixture has %d oversized and %d small trees; need both", oversized, small)
	}
	if cs.ISOMIT.BudgetFallbacks != oversized || cs.ISOMIT.PenalizedSolves != oversized {
		t.Fatalf("fallbacks/penalized solves = %d/%d, want %d oversized trees",
			cs.ISOMIT.BudgetFallbacks, cs.ISOMIT.PenalizedSolves, oversized)
	}
	if cs.ISOMIT.BudgetSolves != small {
		t.Fatalf("BudgetSolves = %d, want %d trees within the cap", cs.ISOMIT.BudgetSolves, small)
	}
	if cs.ISOMIT.AutoRounds < cs.ISOMIT.BudgetSolves {
		t.Fatalf("AutoRounds %d < BudgetSolves %d: every auto solve tries ≥ 1 k",
			cs.ISOMIT.AutoRounds, cs.ISOMIT.BudgetSolves)
	}
}

// TestDetectNoRecorderUnchanged guards the zero-cost contract: a detect
// without a recorder must behave identically (already covered by every
// other test) and record nothing through a recorder attached to a
// *different* context.
func TestDetectNoRecorderUnchanged(t *testing.T) {
	sim := simulate(t, 11, 200, 1200, 6)
	rid := mustRID(t, 0.3)
	rec := obs.NewRecorder()
	if _, err := rid.DetectContext(context.Background(), sim.snap); err != nil {
		t.Fatal(err)
	}
	if got := rec.Stages(); len(got) != 0 {
		t.Fatalf("unattached recorder observed stages: %v", got)
	}
}

// BenchmarkDetectObsOverhead measures the instrumentation tax: the same
// detect with no recorder attached (the no-op path every batch caller
// takes) vs. with a live recorder (the serving path). The acceptance bar
// is < 2% overhead for the no-recorder path relative to pre-obs code;
// compare these two benches and the historical BenchmarkRIDEndToEnd.
func BenchmarkDetectObsOverhead(b *testing.B) {
	sim := simulate(b, 11, 2000, 12000, 60)
	rid, err := NewRID(RIDConfig{Alpha: 3, Beta: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("no-recorder", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := rid.DetectContext(ctx, sim.snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recorder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := obs.WithRecorder(context.Background(), obs.NewRecorder())
			if _, err := rid.DetectContext(ctx, sim.snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The full serving path: recorder plus OTLP enqueue against an
	// unreachable collector. The exporter's acceptance bar is < 2% over
	// "recorder" alone — the request path pays one channel send; marshal,
	// connect failures and retries all live on the background worker.
	b.Run("recorder+export", func(b *testing.B) {
		exp, err := obs.NewExporter(obs.ExporterConfig{
			Endpoint:   "http://127.0.0.1:9/v1/traces", // discard port: connect always fails
			MaxRetries: -1,
			RetryBase:  time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer exp.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := obs.NewRecorder()
			tc := obs.NewTraceContext()
			ctx := obs.WithRecorder(obs.WithTraceContext(context.Background(), tc), rec)
			start := time.Now()
			if _, err := rid.DetectContext(ctx, sim.snap); err != nil {
				b.Fatal(err)
			}
			exp.Enqueue(&obs.RequestTelemetry{
				Trace: tc, Route: "bench/detect",
				Start: start, End: time.Now(),
				HTTPStatus: 200, Rec: rec,
			})
		}
	})
}
