package core

import (
	"context"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// JordanCenter is the distance-center comparator used throughout the
// rumor-source literature (e.g. Shah & Zaman's evaluation; Zhu & Ying's
// Jordan-center estimator): for each infected component it returns the
// node minimizing the maximum hop distance (eccentricity) to every other
// infected node, treating links as undirected and unweighted. One
// initiator per component, identities only. Beyond the paper's own
// baselines; included for comparison breadth.
type JordanCenter struct{}

// Name implements Detector.
func (JordanCenter) Name() string { return "JordanCenter" }

// DetectContext implements Detector.
func (JordanCenter) DetectContext(ctx context.Context, snap *cascade.Snapshot) (*Detection, error) {
	return perComponent(ctx, snap, jordanCenterOf)
}

// perComponent runs a one-initiator-per-component comparator: pick
// returns the chosen node of each infected connected component (links
// undirected, signs ignored), in the induced subgraph's local IDs.
func perComponent(ctx context.Context, snap *cascade.Snapshot, pick func(g *sgraph.Graph, comp []int) int) (*Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	infected := snap.Infected()
	if len(infected) == 0 {
		return nil, cascade.ErrNoInfected
	}
	sub := sgraph.Induce(snap.G, infected)
	comps := sgraph.ConnectedComponents(sub.G)
	det := &Detection{Components: len(comps), Trees: len(comps)}
	for _, comp := range comps {
		det.Initiators = append(det.Initiators, sub.Orig[pick(sub.G, comp)])
	}
	sortDetection(det)
	return det, nil
}

// jordanCenterOf computes the minimum-eccentricity node of one component
// by running a BFS from every node — O(|comp|·(|comp|+edges)), fine at the
// component sizes the experiments produce. Ties break toward the smaller
// node ID for determinism.
func jordanCenterOf(g *sgraph.Graph, comp []int) int {
	pos := make(map[int]int, len(comp))
	for i, v := range comp {
		pos[v] = i
	}
	adj := make([][]int32, len(comp))
	for i, v := range comp {
		add := func(e sgraph.Edge) {
			w := e.To
			if w == v {
				w = e.From
			}
			if j, ok := pos[w]; ok && j != i {
				adj[i] = append(adj[i], int32(j))
			}
		}
		g.Out(v, add)
		g.In(v, add)
	}
	best, bestEcc := comp[0], int32(1)<<30
	dist := make([]int32, len(comp))
	queue := make([]int32, 0, len(comp))
	for s := range comp {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		ecc := int32(0)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, w := range adj[u] {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					if dist[w] > ecc {
						ecc = dist[w]
					}
					queue = append(queue, w)
				}
			}
		}
		if ecc < bestEcc || (ecc == bestEcc && comp[s] < best) {
			bestEcc, best = ecc, comp[s]
		}
	}
	return best
}

// DegreeMax returns the highest-degree infected node of each infected
// component — the crudest source heuristic, included as a floor for the
// comparisons. Identities only.
type DegreeMax struct{}

// Name implements Detector.
func (DegreeMax) Name() string { return "DegreeMax" }

// DetectContext implements Detector.
func (DegreeMax) DetectContext(ctx context.Context, snap *cascade.Snapshot) (*Detection, error) {
	return perComponent(ctx, snap, func(g *sgraph.Graph, comp []int) int {
		best, bestDeg := comp[0], -1
		for _, v := range comp {
			if d := g.OutDegree(v) + g.InDegree(v); d > bestDeg {
				best, bestDeg = v, d
			}
		}
		return best
	})
}
