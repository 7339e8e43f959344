package core

import (
	"context"
	"math"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// RumorCentrality is a comparator beyond the paper's own baselines: the
// rumor-centrality source estimator of Shah & Zaman ("Rumors in a network:
// who's the culprit?", IEEE Trans. IT 2011), which the paper's related-work
// section discusses. For each infected connected component it builds a BFS
// tree (the standard heuristic for general graphs), computes the rumor
// centrality of every node by the rerooting identity
// R(c) = R(p) · T_c / (n − T_c), and reports the maximizer — one initiator
// per component, signs ignored, identities only.
type RumorCentrality struct{}

// Name implements Detector.
func (RumorCentrality) Name() string { return "RumorCentrality" }

// DetectContext implements Detector.
func (RumorCentrality) DetectContext(ctx context.Context, snap *cascade.Snapshot) (*Detection, error) {
	return perComponent(ctx, snap, centerOf)
}

// centerOf returns the rumor center of one component (sub-local node IDs).
func centerOf(g *sgraph.Graph, comp []int) int {
	n := len(comp)
	if n == 1 {
		return comp[0]
	}
	pos := make(map[int]int, n)
	for i, v := range comp {
		pos[v] = i
	}
	// Undirected adjacency on component indices.
	adj := make([][]int32, n)
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
	// BFS tree from component index 0.
	parent := make([]int32, n)
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	parent[0] = -1
	seen[0] = true
	order = append(order, 0)
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for _, w := range adj[u] {
			if !seen[w] {
				seen[w] = true
				parent[w] = u
				order = append(order, w)
			}
		}
	}
	// Subtree sizes (reverse BFS order).
	size := make([]int32, n)
	for i := range size {
		size[i] = 1
	}
	for i := len(order) - 1; i >= 1; i-- {
		u := order[i]
		size[parent[u]] += size[u]
	}
	// log rumor centrality of the BFS root: R ∝ 1 / Π_{u≠root} T_u.
	logR := make([]float64, n)
	for i := 1; i < len(order); i++ {
		logR[0] -= math.Log(float64(size[order[i]]))
	}
	// Reroot down the BFS tree: R(c) = R(p) · T_c / (n − T_c).
	bestIdx, bestVal := 0, logR[0]
	for i := 1; i < len(order); i++ {
		c := order[i]
		p := parent[c]
		logR[c] = logR[p] + math.Log(float64(size[c])) - math.Log(float64(int32(n)-size[c]))
		if logR[c] > bestVal {
			bestVal, bestIdx = logR[c], int(c)
		}
	}
	return comp[bestIdx]
}
