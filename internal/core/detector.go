// Package core implements the paper's contribution: the RID (Rumor
// Initiator Detector) framework for the ISOMIT problem, together with the
// comparison methods of Section IV-B1 (RID-Tree and RID-Positive) and a
// rumor-centrality comparator (Shah & Zaman) from the related work, which
// goes beyond the paper's own baselines.
//
// All detectors consume a cascade.Snapshot — the infected signed diffusion
// network at one moment in time — and return the inferred rumor initiators
// (and, for RID, their initial states).
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// Detection is a detector's output.
type Detection struct {
	// Initiators holds detected initiator node IDs, ascending.
	Initiators []int
	// States holds the inferred initial states, parallel to Initiators.
	// Nil for detectors that identify identities only (RID-Tree,
	// RID-Positive, rumor centrality), per the paper's Section IV-B2.
	States []sgraph.State
	// Confidence optionally scores each detection in [0, 1], parallel to
	// Initiators: tree roots (which must be initiators) get 1; cut points
	// get the improbability of the activation link they sever. Nil for
	// detectors without a natural score.
	Confidence []float64
	// Trees is the number of extracted cascade trees; Components the
	// number of infected connected components.
	Trees, Components int
}

// Ranked returns the initiators ordered by descending confidence (stable
// on ties by node ID). Detections without confidence come back in ID
// order.
func (d *Detection) Ranked() []int {
	out := append([]int(nil), d.Initiators...)
	if d.Confidence == nil {
		return out
	}
	conf := append([]float64(nil), d.Confidence...)
	// insertion sort by confidence desc; detection lists are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && conf[j] > conf[j-1]; j-- {
			conf[j], conf[j-1] = conf[j-1], conf[j]
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Detector identifies rumor initiators from an infected-network snapshot.
type Detector interface {
	// Name is the label used in experiment reports (e.g. "RID(0.1)").
	Name() string
	// DetectContext infers the rumor initiators from the snapshot. It
	// honors ctx's cancellation, and an obs.Recorder attached to ctx
	// collects the pipeline's stage timings and counters.
	DetectContext(ctx context.Context, snap *cascade.Snapshot) (*Detection, error)
}

// ErrUnknownDetector is wrapped by NewDetector for a name outside
// DetectorNames.
var ErrUnknownDetector = errors.New("core: unknown detector")

// DetectorNames lists the names NewDetector accepts, RID first.
func DetectorNames() []string {
	return []string{"rid", "rid-tree", "rid-positive", "rumor-centrality", "jordan-center", "degree-max", "ensemble"}
}

// NewDetector builds the named detector. cfg configures RID and is the
// base of the ensemble, which votes 2 of 3 over RID at β/2, β and 2β; the
// RID-Tree baseline takes its Alpha; the other comparators ignore it.
func NewDetector(name string, cfg RIDConfig) (Detector, error) {
	cfg = cfg.withDefaults()
	switch name {
	case "rid":
		return NewRID(cfg)
	case "rid-tree":
		return NewRIDTree(cfg.Alpha)
	case "rid-positive":
		return RIDPositive{}, nil
	case "rumor-centrality":
		return RumorCentrality{}, nil
	case "jordan-center":
		return JordanCenter{}, nil
	case "degree-max":
		return DegreeMax{}, nil
	case "ensemble":
		return NewEnsembleConfig(cfg, []float64{0.5 * cfg.Beta, cfg.Beta, 2 * cfg.Beta}, 2)
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownDetector, name)
}
