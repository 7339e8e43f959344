package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/sgraph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Detector settings shared by every request and by the oracle: RID with
// β = 0.3 and the MFC boosting α = 3 (the server's defaults, sent
// explicitly for β).
const (
	beta  = 0.3
	alpha = 3.0
)

// Workload shape. The wire networks match the server package's
// BenchmarkDetectHandler (preferential attachment, 2000 nodes, 12000 edges,
// Jaccard weights, 40 MFC initiators); the composite is the 8-shard,
// 1%-scale Epinions instance of the root BenchmarkRIDEndToEnd.
const (
	wireNodes     = 2000
	wireEdges     = 12000
	wireSeeds     = 40
	hotNets       = 4
	coldNets      = 2 * 64 // twice the server's default graph-cache capacity
	hotPerNet     = 512    // distinct outbreaks per hot network
	coldPerNet    = 5      // distinct outbreaks per cold network
	batchItems    = 16     // observations per /v1/detect/batch request
	batchPool     = 1021   // prime, so request bodies repeat only after batchPool requests
	sessionPool   = 256
	eventsPerPost = 64
	detectEvery   = 4 // session checkpoint after every 4th event batch (and the last)
	minSeeds      = 2
	maxSeeds      = 400
	genWorkers    = 2 // input generation goroutines
)

// subSeed derives an independent generator seed for one input from the
// workload seed, a tag naming the input family and an index.
func subSeed(seed uint64, tag string, i int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	h.Write([]byte(tag))
	binary.LittleEndian.PutUint64(buf[:], uint64(i))
	h.Write(buf[:])
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// answer is the oracle's expectation for one detection: the ranked
// initiators core.RID returns in-process on the same instance, plus the
// ground-truth seeds (nil where the instance has none) for F1.
type answer struct {
	want  []server.RankedInitiator
	seeds []int
}

// f1 scores returned initiators against the ground truth.
func (a *answer) f1(got []server.RankedInitiator) float64 {
	nodes := make([]int, len(got))
	for i, ri := range got {
		nodes[i] = ri.Node
	}
	return metrics.EvalIdentity(nodes, a.seeds).F1
}

// match reports the first difference between a returned ranking and the
// oracle's, or "" when they agree on order, states and scores.
func (a *answer) match(got []server.RankedInitiator) string {
	if len(got) != len(a.want) {
		return fmt.Sprintf("%d initiators, oracle has %d", len(got), len(a.want))
	}
	for i := range got {
		if got[i] != a.want[i] {
			return fmt.Sprintf("initiator %d is %+v, oracle has %+v", i, got[i], a.want[i])
		}
	}
	return ""
}

// rank orders a detection the way the server's responses do: descending
// score, ties by ascending node ID.
func rank(det *core.Detection) []server.RankedInitiator {
	out := make([]server.RankedInitiator, len(det.Initiators))
	for i, v := range det.Initiators {
		out[i] = server.RankedInitiator{Node: v}
		if det.States != nil {
			out[i].State = int8(det.States[i])
		}
		if det.Confidence != nil {
			out[i].Score = det.Confidence[i]
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Node < out[b].Node
	})
	return out
}

// oracle runs the in-process detector the server should agree with.
func oracle(snap *cascade.Snapshot) (*answer, error) {
	rid, err := core.NewRID(core.RIDConfig{Alpha: alpha, Beta: beta, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	det, err := rid.Detect(snap)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &answer{want: rank(det)}, nil
}

// outbreak is one simulated MFC cascade and its observed snapshot.
type outbreak struct {
	snap       *cascade.Snapshot
	seeds      []int
	seedStates []sgraph.State
}

func simulate(g *sgraph.Graph, nSeeds int, rng *xrand.Rand) (*outbreak, error) {
	seeds, states, err := diffusion.SampleInitiators(g.NumNodes(), nSeeds, 0.5, rng)
	if err != nil {
		return nil, err
	}
	c, err := diffusion.MFC(g, seeds, states, diffusion.MFCConfig{Alpha: alpha}, rng)
	if err != nil {
		return nil, err
	}
	snap, err := cascade.NewSnapshot(g, c.States)
	if err != nil {
		return nil, err
	}
	return &outbreak{snap: snap, seeds: seeds, seedStates: states}, nil
}

// spreadSeeds returns a pool's n initiator counts, log-uniform over
// [minSeeds, maxSeeds] so that infected sets range from tens of nodes to
// thousands across several components of the composite. The draw is
// stratified: count i comes from the i-th of n equal slices of the log
// range, and the counts are shuffled. Every workload seed thus gets the
// same spread of outbreak sizes, and only the outbreaks themselves and
// their order differ, so the pool's cost barely moves with the seed.
func spreadSeeds(seed uint64, tag string, n int) []int {
	rng := xrand.New(subSeed(seed, tag+"-sizes", 0))
	lo, hi := math.Log(minSeeds), math.Log(maxSeeds)
	out := make([]int, n)
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n)
		out[i] = int(math.Round(math.Exp(lo + u*(hi-lo))))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (o *outbreak) observation(name string) *trace.Observation {
	t := trace.FromSnapshot(name, o.snap, o.seeds, o.seedStates)
	return t.Observation()
}

// forEach runs fn(i) for i in [0, n) on genWorkers goroutines. Every
// input is seeded by its index, so the result does not depend on
// scheduling.
func forEach(n int, fn func(i int) error) error {
	return par.ForEach(context.Background(), genWorkers, n, func(_, i int) error { return fn(i) })
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err)) // plain data; cannot fail
	}
	return b
}

// detectSuffix is the JSON shared by every detect body after the trace's
// observational fields.
var detectSuffix = []byte(fmt.Sprintf(`},"detector":"rid","beta":%g}`, beta))

// networkPrefix is the opening of a /v1/detect body up to the trace's
// edges; an outbreak's observationJSON completes it.
func networkPrefix(name string, g *sgraph.Graph) ([]byte, string) {
	t := &trace.Trace{Version: trace.Version, Name: name, Nodes: g.NumNodes()}
	g.Edges(func(e sgraph.Edge) {
		t.Edges = append(t.Edges, trace.EdgeRecord{From: e.From, To: e.To, Sign: int8(e.Sign), Weight: e.Weight})
	})
	prefix := fmt.Appendf(nil, `{"trace":{"version":%d,"name":%q,"nodes":%d,"edges":`, t.Version, name, t.Nodes)
	return append(prefix, mustJSON(t.Edges)...), t.NetworkHash()
}

// observationJSON is the remainder of a detect body after networkPrefix.
func observationJSON(o *trace.Observation) []byte {
	b := append([]byte(`,"observed":`), mustJSON(o.Observed)...)
	b = append(b, `,"seeds":`...)
	b = append(b, mustJSON(o.Seeds)...)
	b = append(b, `,"seed_states":`...)
	b = append(b, mustJSON(o.SeedStates)...)
	return append(b, detectSuffix...)
}

// wireInputs is the wire-detect workload: hot networks the cache keeps,
// a cold rotation it cannot, and a distinct outbreak per request.
type wireInputs struct {
	nets  []wireNet // hotNets hot networks, then coldNets cold ones
	hot   []wireItem
	cold  []wireItem
	prime []wireItem // one priming outbreak per hot network
}

type wireNet struct {
	prefix []byte
	hash   string
}

type wireItem struct {
	net  int
	body []byte // observationJSON
	ans  *answer
}

// schedule maps a global request number to its item: every 4th request
// carries a cold network, the rest cycle the hot networks.
func (w *wireInputs) schedule(n int64) (*wireItem, bool) {
	if n%4 == 3 {
		return &w.cold[(n/4)%int64(len(w.cold))], true
	}
	h := n - n/4
	return &w.hot[h%int64(len(w.hot))], false
}

func genWire(seed uint64) (*wireInputs, error) {
	w := &wireInputs{
		nets:  make([]wireNet, hotNets+coldNets),
		hot:   make([]wireItem, hotNets*hotPerNet),
		cold:  make([]wireItem, coldNets*coldPerNet),
		prime: make([]wireItem, hotNets),
	}
	err := forEach(len(w.nets), func(k int) error {
		rng := xrand.New(subSeed(seed, "wire-net", k))
		pa, err := gen.PreferentialAttachment(gen.Config{Nodes: wireNodes, Edges: wireEdges, PositiveRatio: 0.8}, rng)
		if err != nil {
			return err
		}
		g := sgraph.WeightByJaccard(pa, 0.1, rng).Reverse()
		prefix, hash := networkPrefix(fmt.Sprintf("wire-%d", k), g)
		w.nets[k] = wireNet{prefix: prefix, hash: hash}
		item := func(tag string, i int) (wireItem, error) {
			o, err := simulate(g, wireSeeds, xrand.New(subSeed(seed, tag, i)))
			if err != nil {
				return wireItem{}, err
			}
			ans, err := oracle(o.snap)
			if err != nil {
				return wireItem{}, err
			}
			ans.seeds = o.seeds
			return wireItem{net: k, body: observationJSON(o.observation("")), ans: ans}, nil
		}
		if k < hotNets {
			// Hot item h sits on network h % hotNets, matching schedule's
			// rotation.
			for j := 0; j < hotPerNet; j++ {
				i := j*hotNets + k
				if w.hot[i], err = item("wire-hot", i); err != nil {
					return err
				}
			}
			w.prime[k], err = item("wire-prime", k)
			return err
		}
		c := k - hotNets
		for j := 0; j < coldPerNet; j++ {
			i := j*coldNets + c
			if w.cold[i], err = item("wire-cold", i); err != nil {
				return err
			}
		}
		return nil
	})
	return w, err
}

// compositeSeed is the base seed of BenchmarkRIDEndToEnd's composite:
// every run serves the same network, and the workload seed varies only the
// outbreaks on it.
const compositeSeed = 99

// composite is the shared network of batch-kernel and session-stream,
// with its own outbreak as the priming detect.
type composite struct {
	g      *sgraph.Graph
	hash   string
	trace  *trace.Trace // priming trace (network plus the composite's outbreak)
	prime  []byte       // /v1/detect body
	answer *answer
}

func genComposite() (*composite, error) {
	in, err := experiment.Workload{Dataset: "Epinions", Scale: 0.01, Trials: 1,
		BaseSeed: compositeSeed, Parallelism: genWorkers}.RunSharded(8, 0)
	if err != nil {
		return nil, err
	}
	tr := trace.FromSnapshot("composite", in.Snap, in.Seeds, in.States)
	ans, err := oracle(in.Snap)
	if err != nil {
		return nil, err
	}
	ans.seeds = in.Seeds
	return &composite{
		g:      in.Snap.G,
		hash:   tr.NetworkHash(),
		trace:  tr,
		prime:  mustJSON(server.DetectRequest{Trace: tr, Detector: "rid", Beta: beta}),
		answer: ans,
	}, nil
}

// batchInputs is the batch-kernel workload: a pool of outbreaks on the
// composite, sent batchItems at a time by graph_hash.
type batchInputs struct {
	net   *composite
	items []batchItem
}

type batchItem struct {
	json []byte // one trace.Observation
	ans  *answer
}

func genBatch(seed uint64, net *composite) (*batchInputs, error) {
	b := &batchInputs{net: net, items: make([]batchItem, batchPool)}
	sizes := spreadSeeds(seed, "batch", batchPool)
	err := forEach(batchPool, func(i int) error {
		rng := xrand.New(subSeed(seed, "batch", i))
		o, err := simulate(net.g, sizes[i], rng)
		if err != nil {
			return err
		}
		ans, err := oracle(o.snap)
		if err != nil {
			return err
		}
		ans.seeds = o.seeds
		b.items[i] = batchItem{json: mustJSON(o.observation(fmt.Sprintf("o%d", i))), ans: ans}
		return nil
	})
	return b, err
}

// request returns the item indices and body of global request n: the
// batchItems consecutive pool entries starting at n·batchItems.
func (b *batchInputs) request(n int64) ([]int, []byte) {
	idx := make([]int, batchItems)
	body := fmt.Appendf(nil, `{"graph_hash":%q,"items":[`, b.net.hash)
	for j := range idx {
		idx[j] = int((n*batchItems + int64(j)) % int64(len(b.items)))
		if j > 0 {
			body = append(body, ',')
		}
		body = append(body, b.items[idx[j]].json...)
	}
	return idx, append(body, fmt.Sprintf(`],"detector":"rid","beta":%g}`, beta)...)
}

// sessionInputs is the session-stream workload: outbreaks on the
// composite replayed as event streams.
type sessionInputs struct {
	net      *composite
	create   []byte
	sessions []sessionItem
}

type sessionItem struct {
	batches [][]trace.Event
	bodies  [][]byte // EventsRequest per batch
	// checks[b] is the oracle answer after batch b, nil where no detect
	// follows that batch.
	checks []*answer
}

// checkpoint reports whether a detect follows event batch b of nb.
func checkpoint(b, nb int) bool { return (b+1)%detectEvery == 0 || b == nb-1 }

func genSessions(seed uint64, net *composite) (*sessionInputs, error) {
	s := &sessionInputs{
		net:      net,
		create:   mustJSON(server.SessionRequest{GraphHash: net.hash, Beta: beta}),
		sessions: make([]sessionItem, sessionPool),
	}
	sizes := spreadSeeds(seed, "session", sessionPool)
	err := forEach(sessionPool, func(i int) error {
		rng := xrand.New(subSeed(seed, "session", i))
		o, err := simulate(net.g, sizes[i], rng)
		if err != nil {
			return err
		}
		tr := trace.FromSnapshot("", o.snap, o.seeds, o.seedStates)
		events, err := ingest.EventsFromTrace(tr)
		if err != nil {
			return err
		}
		item, err := sessionFromEvents(net.g, events, o.seeds)
		s.sessions[i] = item
		return err
	})
	return s, err
}

// sessionFromEvents splits an event stream into posts and computes the
// one-shot oracle answer on the event prefix at every checkpoint.
func sessionFromEvents(g *sgraph.Graph, events []trace.Event, seeds []int) (sessionItem, error) {
	var item sessionItem
	for lo := 0; lo < len(events); lo += eventsPerPost {
		hi := min(lo+eventsPerPost, len(events))
		item.batches = append(item.batches, events[lo:hi])
		item.bodies = append(item.bodies, mustJSON(server.EventsRequest{Events: events[lo:hi]}))
	}
	item.checks = make([]*answer, len(item.batches))
	states := make([]sgraph.State, g.NumNodes())
	for b, batch := range item.batches {
		for _, e := range batch {
			st, err := trace.StateFromCode(e.State)
			if err != nil {
				return item, err
			}
			states[e.To] = st
		}
		if !checkpoint(b, len(item.batches)) {
			continue
		}
		snap, err := cascade.NewSnapshot(g, append([]sgraph.State(nil), states...))
		if err != nil {
			return item, err
		}
		ans, err := oracle(snap)
		if err != nil {
			return item, err
		}
		if b == len(item.batches)-1 {
			ans.seeds = seeds
		}
		item.checks[b] = ans
	}
	return item, nil
}
