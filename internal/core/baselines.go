package core

import (
	"context"
	"fmt"

	"repro/internal/cascade"
)

// RIDTree is the RID-Tree baseline (Section IV-B1): the first two steps of
// RID — infected component detection and maximum-likelihood cascade forest
// extraction via Chu-Liu/Edmonds — with the roots of the extracted trees
// reported as the rumor initiators. It identifies identities only.
type RIDTree struct {
	// Alpha is the boosting coefficient used for consistency-aware link
	// scoring during extraction; must be >= 1.
	Alpha float64
}

// NewRIDTree returns the baseline with the given boosting coefficient.
func NewRIDTree(alpha float64) (*RIDTree, error) {
	if alpha < 1 {
		return nil, fmt.Errorf("core: Alpha must be >= 1, got %g", alpha)
	}
	return &RIDTree{Alpha: alpha}, nil
}

// Name implements Detector.
func (d *RIDTree) Name() string { return "RID-Tree" }

// DetectContext implements Detector.
func (d *RIDTree) DetectContext(ctx context.Context, snap *cascade.Snapshot) (*Detection, error) {
	return extractRoots(ctx, snap, cascade.Config{Alpha: d.Alpha})
}

// RIDPositive is the RID-Positive baseline (Section IV-B1): negative links
// are discarded, the remaining positive-only network is treated as an
// unsigned network (raw weights, no consistency scoring — the diffusion-
// tree extraction of Lappas et al.), and the roots of the extracted trees
// are the rumor initiators. Identities only.
type RIDPositive struct{}

// Name implements Detector.
func (RIDPositive) Name() string { return "RID-Positive" }

// DetectContext implements Detector.
func (RIDPositive) DetectContext(ctx context.Context, snap *cascade.Snapshot) (*Detection, error) {
	return extractRoots(ctx, snap, cascade.Config{
		Alpha:        1,
		Mode:         cascade.ModeRaw,
		PositiveOnly: true,
	})
}

// extractRoots extracts the cascade forest under ctx and reports its tree
// roots as the initiators.
func extractRoots(ctx context.Context, snap *cascade.Snapshot, cfg cascade.Config) (*Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	forest, err := cascade.ExtractContext(ctx, snap, cfg)
	if err != nil {
		return nil, err
	}
	det := &Detection{Trees: len(forest.Trees), Components: forest.Components}
	for _, tree := range forest.Trees {
		det.Initiators = append(det.Initiators, tree.Orig[tree.Root()])
	}
	sortDetection(det)
	return det, nil
}
