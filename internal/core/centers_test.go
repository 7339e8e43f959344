package core

import (
	"context"
	"testing"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

func allPositiveSnapshot(t *testing.T, b *sgraph.Builder, n int) *cascade.Snapshot {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	states := make([]sgraph.State, n)
	for i := range states {
		states[i] = sgraph.StatePositive
	}
	snap, err := cascade.NewSnapshot(g, states)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestJordanCenterPath(t *testing.T) {
	// Path 0-1-2-3-4: the Jordan center is node 2 (eccentricity 2).
	b := sgraph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(i, i+1, sgraph.Positive, 0.5)
	}
	det, err := JordanCenter{}.DetectContext(context.Background(), allPositiveSnapshot(t, b, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Initiators) != 1 || det.Initiators[0] != 2 {
		t.Errorf("Jordan center = %v, want [2]", det.Initiators)
	}
	if det.States != nil {
		t.Error("JordanCenter should not infer states")
	}
}

func TestJordanCenterPerComponent(t *testing.T) {
	// Two disjoint paths: one center each.
	b := sgraph.NewBuilder(6)
	b.AddEdge(0, 1, sgraph.Positive, 0.5)
	b.AddEdge(1, 2, sgraph.Positive, 0.5)
	b.AddEdge(3, 4, sgraph.Positive, 0.5)
	b.AddEdge(4, 5, sgraph.Positive, 0.5)
	det, err := JordanCenter{}.DetectContext(context.Background(), allPositiveSnapshot(t, b, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Initiators) != 2 || det.Initiators[0] != 1 || det.Initiators[1] != 4 {
		t.Errorf("centers = %v, want [1 4]", det.Initiators)
	}
}

func TestDegreeMaxHub(t *testing.T) {
	// Star: the hub has the highest degree.
	b := sgraph.NewBuilder(5)
	for i := 1; i < 5; i++ {
		b.AddEdge(0, i, sgraph.Positive, 0.5)
	}
	det, err := DegreeMax{}.DetectContext(context.Background(), allPositiveSnapshot(t, b, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Initiators) != 1 || det.Initiators[0] != 0 {
		t.Errorf("DegreeMax = %v, want [0]", det.Initiators)
	}
}

func TestCentersOnSimulatedCascade(t *testing.T) {
	sim := simulate(t, 23, 1200, 6000, 15)
	for _, d := range []Detector{JordanCenter{}, DegreeMax{}} {
		det, err := d.DetectContext(context.Background(), sim.snap)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if len(det.Initiators) != det.Components {
			t.Errorf("%s: %d detections for %d components", d.Name(), len(det.Initiators), det.Components)
		}
	}
}

func TestCentersEmptySnapshot(t *testing.T) {
	g := sgraph.NewBuilder(3).MustBuild()
	snap, err := cascade.NewSnapshot(g, make([]sgraph.State, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (JordanCenter{}).DetectContext(context.Background(), snap); err == nil {
		t.Error("JordanCenter on empty snapshot should error")
	}
	if _, err := (DegreeMax{}).DetectContext(context.Background(), snap); err == nil {
		t.Error("DegreeMax on empty snapshot should error")
	}
}
