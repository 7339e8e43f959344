package cascade

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sgraph"
)

// TestWorkspaceMatchesExtract is the bit-identity contract incremental
// detection relies on: extracting each infected component in isolation via
// Workspace.ExtractComponent reproduces exactly the trees ExtractContext
// builds for that component within the full forest.
func TestWorkspaceMatchesExtract(t *testing.T) {
	snap := multiComponentSnapshot(t, 6, 120)
	cfg := Config{Alpha: 3}
	full, err := Extract(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comps := InfectedComponents(snap, cfg.PositiveOnly)
	if len(comps) != full.Components {
		t.Fatalf("InfectedComponents found %d components, Extract %d", len(comps), full.Components)
	}
	if len(comps) < 2 {
		t.Fatalf("want a multi-component snapshot, got %d", len(comps))
	}
	w := NewWorkspace()
	var got []*Tree
	for ci, nodes := range comps {
		trees, err := w.ExtractComponent(context.Background(), snap, nodes, ci, cfg)
		if err != nil {
			t.Fatalf("component %d: %v", ci, err)
		}
		got = append(got, trees...)
	}
	if !reflect.DeepEqual(got, full.Trees) {
		t.Error("component-scoped extraction differs from full Extract")
	}
}

// TestWorkspaceCountsLikeExtract requires the component-scoped path to
// record the same typed counters as ExtractContext: extracting every
// component through Workspace.ExtractComponent sums to the full
// extraction's CounterSet, field by field.
func TestWorkspaceCountsLikeExtract(t *testing.T) {
	snap := multiComponentSnapshot(t, 6, 120)
	cfg := Config{Alpha: 3}
	full := obs.NewRecorder()
	if _, err := ExtractContext(obs.WithRecorder(context.Background(), full), snap, cfg); err != nil {
		t.Fatal(err)
	}
	parts := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), parts)
	w := NewWorkspace()
	for ci, nodes := range InfectedComponents(snap, cfg.PositiveOnly) {
		if _, err := w.ExtractComponent(ctx, snap, nodes, ci, cfg); err != nil {
			t.Fatalf("component %d: %v", ci, err)
		}
	}
	want, got := full.CounterSetSnapshot(), parts.CounterSetSnapshot()
	if want == nil || want.Cascade.Components < 2 {
		t.Fatalf("full extraction counted %+v; want a multi-component snapshot", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-component counters %+v\ndiffer from full extraction %+v", got, want)
	}
}

// TestWorkspaceMatchesExtractPositiveOnly covers the edge-dropping variant,
// where connectivity itself changes before component detection.
func TestWorkspaceMatchesExtractPositiveOnly(t *testing.T) {
	snap := multiComponentSnapshot(t, 3, 80)
	cfg := Config{Alpha: 3, PositiveOnly: true}
	full, err := Extract(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comps := InfectedComponents(snap, true)
	if len(comps) != full.Components {
		t.Fatalf("InfectedComponents found %d components, Extract %d", len(comps), full.Components)
	}
	w := NewWorkspace()
	var got []*Tree
	for ci, nodes := range comps {
		trees, err := w.ExtractComponent(context.Background(), snap, nodes, ci, cfg)
		if err != nil {
			t.Fatalf("component %d: %v", ci, err)
		}
		got = append(got, trees...)
	}
	if !reflect.DeepEqual(got, full.Trees) {
		t.Error("component-scoped extraction differs from full Extract (positive-only)")
	}
}

func TestWorkspaceRejectsBadComponents(t *testing.T) {
	b := sgraph.NewBuilder(4)
	b.AddEdge(0, 1, sgraph.Positive, 0.5)
	b.AddEdge(2, 3, sgraph.Positive, 0.5)
	snap, err := NewSnapshot(b.MustBuild(), []sgraph.State{
		sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace()
	cases := []struct {
		name  string
		nodes []int
	}{
		{"empty", nil},
		{"out of range", []int{0, 7}},
		{"negative", []int{-1, 0}},
		{"unsorted", []int{1, 0}},
		{"duplicate", []int{0, 0}},
	}
	for _, tc := range cases {
		if _, err := w.ExtractComponent(context.Background(), snap, tc.nodes, 0, Config{Alpha: 3}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestInfectedComponentsEmpty(t *testing.T) {
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Positive, 0.5)
	snap, err := NewSnapshot(b.MustBuild(), []sgraph.State{sgraph.StateInactive, sgraph.StateInactive})
	if err != nil {
		t.Fatal(err)
	}
	if comps := InfectedComponents(snap, false); comps != nil {
		t.Fatalf("want nil for a clean snapshot, got %v", comps)
	}
}
