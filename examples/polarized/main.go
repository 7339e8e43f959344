// Polarized-communities scenario: a rumor lands in a network of two
// antagonistic camps (signed stochastic block model — mostly trust inside
// a camp, mostly distrust across). Sources inside camp A push the claim as
// true; as it crosses the camp boundary the distrust links invert it, so
// camp B ends up denying the same story. We check that MFC reproduces this
// echo-chamber signature and that RID still finds the sources on both
// sides of the divide.
//
//	go run ./examples/polarized
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func main() {
	rng := xrand.New(13)
	// Weights kept low so the outbreak stays sub-saturation: once nearly
	// everyone is infected, source detection is information-theoretically
	// hopeless (and the camps' opinions wash out in flip churn).
	g, community, err := gen.SignedCommunities(gen.CommunityConfig{
		Nodes: 2000, Edges: 14000, Communities: 2,
		WeightLow: 0.01, WeightHigh: 0.1,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	dif := g.Reverse()
	st := g.Stats()
	fmt.Printf("two camps, %d accounts, %d links (%.0f%% positive overall)\n",
		st.Nodes, st.Edges, 100*st.PositiveRatio)

	// All sources sit in camp 0 and believe the claim.
	var seeds []int
	for v := 0; len(seeds) < 15; v++ {
		if community[v] == 0 {
			seeds = append(seeds, v)
		}
	}
	states := make([]sgraph.State, len(seeds))
	for i := range states {
		states[i] = sgraph.StatePositive
	}
	c, err := diffusion.MFC(dif, seeds, states, diffusion.MFCConfig{Alpha: 3}, rng)
	if err != nil {
		log.Fatal(err)
	}

	// Echo-chamber signature: believers concentrate in camp 0, deniers in
	// camp 1.
	var stats [2]struct{ pos, neg int }
	for v, s := range c.States {
		switch s {
		case repro.StatePositive:
			stats[community[v]].pos++
		case repro.StateNegative:
			stats[community[v]].neg++
		}
	}
	fmt.Printf("camp 0 (origin): %4d believe / %4d deny\n", stats[0].pos, stats[0].neg)
	fmt.Printf("camp 1 (rival):  %4d believe / %4d deny\n", stats[1].pos, stats[1].neg)

	snap, err := cascade.NewSnapshot(dif, c.States)
	if err != nil {
		log.Fatal(err)
	}
	rid, err := core.NewRID(core.RIDConfig{Alpha: 3, Beta: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	det, err := rid.Detect(snap)
	if err != nil {
		log.Fatal(err)
	}
	id := metrics.EvalIdentity(det.Initiators, seeds)
	fmt.Printf("\nRID: %d suspects, precision %.2f, recall %.2f, F1 %.2f\n",
		len(det.Initiators), id.Precision, id.Recall, id.F1)
	inCamp0 := 0
	for _, v := range det.Initiators {
		if community[v] == 0 {
			inCamp0++
		}
	}
	fmt.Printf("RID places %d/%d suspects in the origin camp\n", inCamp0, len(det.Initiators))

	// Community-structured networks without clustering are a hard regime:
	// uniform weights carry no legit-vs-spurious signal, so only sign
	// inconsistencies betray embedded sources. RID should still edge out
	// the forest-roots baseline.
	tree, err := core.NewRIDTree(3)
	if err != nil {
		log.Fatal(err)
	}
	dt, err := tree.DetectContext(context.Background(), snap)
	if err != nil {
		log.Fatal(err)
	}
	idT := metrics.EvalIdentity(dt.Initiators, seeds)
	fmt.Printf("RID-Tree baseline: %d suspects, precision %.2f, recall %.2f, F1 %.2f\n",
		len(dt.Initiators), idT.Precision, idT.Recall, idT.F1)
}
