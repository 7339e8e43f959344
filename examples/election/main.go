// Election-rumor scenario: the paper's motivating example. A false claim
// about an election result ("X will be the new president") starts with a
// handful of accounts on an Epinions-like trust/distrust network; believers
// spread it as true (+1), skeptics circulate it as debunked (-1), and
// trusted voices flip opinions along the way. Once the platform snapshots
// who currently believes what, we compare every detector from the paper at
// finding patient zero — and RID additionally reconstructs whether each
// source originally pushed or denounced the claim.
//
//	go run ./examples/election
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/metrics"
)

func main() {
	rng := repro.NewRand(2016)

	social, err := repro.LoadDataset("Epinions", 0.02, rng)
	if err != nil {
		log.Fatal(err)
	}
	st := social.Stats()
	fmt.Printf("trust network: %d accounts, %d signed links (%.0f%% trust)\n",
		st.Nodes, st.Edges, 100*st.PositiveRatio)

	// A coordinated push: 5% of accounts seed the claim, 60% of them as
	// believers, 40% as debunkers.
	n := st.Nodes / 20
	c, diffusionNet, err := repro.SimulateMFC(social, repro.SimConfig{
		N: n, Theta: 0.6, Alpha: 3,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	believers, deniers := 0, 0
	for _, s := range c.States {
		switch s {
		case repro.StatePositive:
			believers++
		case repro.StateNegative:
			deniers++
		}
	}
	fmt.Printf("outbreak: %d seeds -> %d infected (%d believe, %d deny), %d flips\n\n",
		n, c.NumInfected(), believers, deniers, c.Flips)

	snap, err := repro.NewSnapshot(diffusionNet, c.States)
	if err != nil {
		log.Fatal(err)
	}

	rid, err := repro.NewRID(repro.RIDConfig{Alpha: 3, Beta: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := repro.NewRIDTree(3)
	if err != nil {
		log.Fatal(err)
	}
	detectors := []repro.Detector{rid, tree, repro.NewRIDPositive(), repro.NewRumorCentrality()}

	fmt.Printf("%-18s %9s %10s %8s %8s\n", "method", "suspects", "precision", "recall", "F1")
	for _, d := range detectors {
		det, err := d.DetectContext(context.Background(), snap)
		if err != nil {
			log.Fatal(err)
		}
		id := metrics.EvalIdentity(det.Initiators, c.Initiators)
		fmt.Printf("%-18s %9d %10.3f %8.3f %8.3f\n",
			d.Name(), len(det.Initiators), id.Precision, id.Recall, id.F1)
		if d == repro.Detector(rid) {
			stm, err := metrics.EvalStates(det.Initiators, det.States, c.Initiators, c.InitStates)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-18s original stance recovered for %.0f%% of the %d correctly named sources\n",
				"", 100*stm.Accuracy, stm.Compared)
		}
	}
}
