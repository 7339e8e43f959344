package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRIDDetectContextCancelled(t *testing.T) {
	sim := simulate(t, 5, 400, 2400, 8)
	rid := mustRID(t, 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := rid.DetectContext(ctx, sim.snap); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled detect still took %v", elapsed)
	}
	// The same detector still works under a live context.
	det, err := rid.DetectContext(context.Background(), sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Initiators) == 0 {
		t.Fatal("no initiators detected")
	}
}

func TestDetectForestContextCancelsBetweenTrees(t *testing.T) {
	sim := simulate(t, 6, 300, 1800, 6)
	rid := mustRID(t, 0.3)
	forest, err := rid.Extract(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rid.DetectForestContext(ctx, forest); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDetectorTable checks every name in the detector table: it builds,
// carries its report label, honors a cancelled context and detects under
// a live one.
func TestDetectorTable(t *testing.T) {
	sim := simulate(t, 7, 200, 1200, 4)
	want := map[string]string{
		"rid":              "RID(0.3)",
		"rid-tree":         "RID-Tree",
		"rid-positive":     "RID-Positive",
		"rumor-centrality": "RumorCentrality",
		"jordan-center":    "JordanCenter",
		"degree-max":       "DegreeMax",
		"ensemble":         "RID-Ensemble(2/3)",
	}
	names := DetectorNames()
	if len(names) != len(want) {
		t.Fatalf("DetectorNames() = %v, want %d names", names, len(want))
	}
	for _, name := range names {
		d, err := NewDetector(name, RIDConfig{Beta: 0.3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Name() != want[name] {
			t.Errorf("%s: Name() = %q, want %q", name, d.Name(), want[name])
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := d.DetectContext(ctx, sim.snap); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		det, err := d.DetectContext(context.Background(), sim.snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(det.Initiators) == 0 {
			t.Fatalf("%s: no initiators detected", name)
		}
	}
	if _, err := NewDetector("bogus", RIDConfig{}); !errors.Is(err, ErrUnknownDetector) {
		t.Fatalf("unknown name: err = %v, want ErrUnknownDetector", err)
	}
	if _, err := NewDetector("rid", RIDConfig{Beta: -1}); err == nil || errors.Is(err, ErrUnknownDetector) {
		t.Fatalf("invalid config: err = %v, want a validation error", err)
	}
}
