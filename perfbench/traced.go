package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sgraph"
	"repro/internal/trace"
)

// span is one timed call of the traced replay. Spans of one replayed
// request share Req; set-up path calls (network validation, hashing and
// building for workloads that send a network only at set-up) have
// negative Req, one per repetition.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
	Req    int64  `json:"request"`
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
	// counts holds per-request count samples by metric name.
	counts map[string]map[int64]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]map[int64]float64{}}
}

func (tr *tracer) begin(name string, parent int, req int64) int {
	tr.spans = append(tr.spans, span{Name: name, Start: int64(time.Since(tr.t0)), Parent: parent, Req: req})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) { tr.spans[i].End = int64(time.Since(tr.t0)) }

// child records a span measured elsewhere (a program recorder's stage
// total) as a child starting with its parent.
func (tr *tracer) child(name string, parent int, d time.Duration) {
	p := tr.spans[parent]
	tr.spans = append(tr.spans, span{Name: name, Start: p.Start, End: p.Start + int64(d), Parent: parent, Req: p.Req})
}

func (tr *tracer) count(name string, req int64, v float64) {
	if tr.counts[name] == nil {
		tr.counts[name] = map[int64]float64{}
	}
	tr.counts[name][req] += v
}

// selfTimes sums each span's self time — its duration minus its
// children's — per request and name, in milliseconds.
func (tr *tracer) selfTimes() map[string]map[int64]float64 {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]map[int64]float64{}
	for i, s := range tr.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int64]float64{}
		}
		out[s.Name][s.Req] += float64(s.End-s.Start-child[i]) / float64(time.Millisecond)
	}
	return out
}

func (tr *tracer) write(path, workload string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replay serves the generated requests through an in-process server's
// handler (no socket) and then through each layer's public functions.
type replay struct {
	in     *inputs
	tr     *tracer
	h      http.Handler
	ctx    context.Context
	t      *tally
	nextID int64
	// graphs holds the networks the in-process server keeps cached, as
	// this replay's own layer calls see them.
	graphs map[string]*sgraph.Graph
}

func (r *replay) id() int64 { r.nextID++; return r.nextID - 1 }

// serve runs one request through the server's handler, timing it as the
// server.handler span when parent >= 0, and decodes a 2xx answer.
func (r *replay) serve(req int64, parent int, route, method, path string, body []byte, out any) string {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq := httptest.NewRequest(method, path, rd)
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	if parent >= 0 {
		i := r.tr.begin("server.handler", parent, req)
		r.h.ServeHTTP(rec, hreq)
		r.tr.end(i)
	} else {
		r.h.ServeHTTP(rec, hreq)
	}
	o := outcome{route: route, status: rec.Code, latency: time.Since(start)}
	if rec.Code/100 != 2 {
		o.failure = fmt.Sprintf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	} else if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			o.failure = fmt.Sprintf("decode answer: %v", err)
		}
	}
	r.t.add(o)
	return o.failure
}

// fail records a failed check of an answer already counted by serve.
func (r *replay) fail(route, msg string) {
	if msg != "" {
		r.t.add(outcome{route: route, status: http.StatusOK, failure: msg})
	}
}

// ridConfig is the configuration the server gives each detection:
// parallelism 0 (GOMAXPROCS) for single detects and sessions, 1 for the
// items of a multi-item batch.
func ridConfig(parallelism int) core.RIDConfig {
	return core.RIDConfig{Alpha: alpha, Beta: beta, Parallelism: parallelism}
}

// kernel times one detection through core and its layers: the
// core.detect rung (RID.DetectContext under a recorder, as the server
// runs it), then the same snapshot through cascade.InfectedComponents,
// RID.ExtractContext (arborescence stage time as the arbor.solve child)
// and RID.DetectForestContext, and finally the bytes one detection
// allocates.
func (r *replay) kernel(req int64, parent int, snap *cascade.Snapshot, rid *core.RID) (*core.Detection, *obs.Recorder, error) {
	rec := obs.NewRecorder()
	i := r.tr.begin("core.detect", parent, req)
	det, err := rid.DetectContext(obs.WithRecorder(r.ctx, rec), snap)
	r.tr.end(i)
	if err != nil {
		return nil, nil, err
	}

	i = r.tr.begin("cascade.components", parent, req)
	cascade.InfectedComponents(snap, false)
	r.tr.end(i)

	xrec := obs.NewRecorder()
	i = r.tr.begin("cascade.extract", parent, req)
	forest, err := rid.ExtractContext(obs.WithRecorder(r.ctx, xrec), snap)
	r.tr.end(i)
	if err != nil {
		return nil, nil, err
	}
	r.tr.child("arbor.solve", i, xrec.Stages()[obs.StageArborescence].Total)
	cs := xrec.CounterSetSnapshot()
	r.tr.count("cascade.edges_scanned", req, float64(cs.Cascade.EdgesScanned))
	r.tr.count("cascade.trees", req, float64(cs.Cascade.Trees))
	r.tr.count("arbor.heap_ops", req, float64(cs.Arbor.HeapMelds+cs.Arbor.HeapPops))
	r.tr.count("arbor.cycles_contracted", req, float64(cs.Arbor.CyclesContracted))

	drec := obs.NewRecorder()
	i = r.tr.begin("isomit.tree_dp", parent, req)
	_, err = rid.DetectForestContext(obs.WithRecorder(r.ctx, drec), forest)
	r.tr.end(i)
	if err != nil {
		return nil, nil, err
	}
	r.tr.count("isomit.dp_cells", req, float64(drec.CounterSetSnapshot().ISOMIT.DPCells))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = rid.DetectContext(obs.WithRecorder(r.ctx, obs.NewRecorder()), snap)
	runtime.ReadMemStats(&m1)
	r.tr.count("core.alloc_bytes", req, float64(m1.TotalAlloc-m0.TotalAlloc))
	return det, rec, err
}

// encode times the JSON encoding of a response value.
func (r *replay) encode(req int64, parent int, v any) {
	var buf bytes.Buffer
	i := r.tr.begin("server.encode", parent, req)
	_ = json.NewEncoder(&buf).Encode(v) // plain data into a buffer
	r.tr.end(i)
}

// decode times strict JSON decoding of a request body, as the handler
// does it (unknown fields rejected).
func (r *replay) decode(req int64, parent int, body []byte, v any) error {
	i := r.tr.begin("server.decode", parent, req)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	r.tr.end(i)
	return err
}

// networkPath times validation, hashing and building of a network sent
// at set-up, repeated reps times under negative request ids.
func (r *replay) networkPath(t *trace.Trace, reps int) error {
	for k := 1; k <= reps; k++ {
		req := -int64(k)
		i := r.tr.begin("trace.validate", -1, req)
		err := t.Validate()
		r.tr.end(i)
		if err != nil {
			return err
		}
		i = r.tr.begin("trace.hash", -1, req)
		t.NetworkHash()
		r.tr.end(i)
		i = r.tr.begin("trace.build_graph", -1, req)
		_, err = t.BuildGraph()
		r.tr.end(i)
		if err != nil {
			return err
		}
	}
	return nil
}

// prime sends the priming requests to the in-process server and keeps the
// primed networks for the layer calls.
func (r *replay) prime() error {
	for _, p := range r.in.w.primes() {
		var resp server.DetectResponse
		if f := r.serve(r.id(), -1, routeDetect, http.MethodPost, "/v1/detect", p.body, &resp); f != "" {
			return fmt.Errorf("prime in-process server: %s", f)
		}
		r.fail(routeDetect, checkAnswer(resp.Initiators, p.ans))
		var req server.DetectRequest
		if err := json.Unmarshal(p.body, &req); err != nil {
			return err
		}
		g, err := req.Trace.BuildGraph()
		if err != nil {
			return err
		}
		r.graphs[p.hash] = g
	}
	return nil
}

// wireRequest replays wire-detect request n: handler, then decode,
// validate, hash, build (misses only), snapshot, detect and encode.
func (r *replay) wireRequest(n int64, rid *core.RID) error {
	it, cold := r.in.wire.schedule(n)
	net := &r.in.wire.nets[it.net]
	body := append(append([]byte(nil), net.prefix...), it.body...)
	req := r.id()
	root := r.tr.begin("request", -1, req)
	defer r.tr.end(root)
	var resp server.DetectResponse
	if r.serve(req, root, routeDetect, http.MethodPost, "/v1/detect", body, &resp) == "" {
		r.fail(routeDetect, checkAnswer(resp.Initiators, it.ans))
	}

	var dr server.DetectRequest
	if err := r.decode(req, root, body, &dr); err != nil {
		return err
	}
	i := r.tr.begin("trace.validate", root, req)
	err := dr.Trace.Validate()
	r.tr.end(i)
	if err != nil {
		return err
	}
	i = r.tr.begin("trace.hash", root, req)
	hash := dr.Trace.NetworkHash()
	r.tr.end(i)
	g, ok := r.graphs[hash]
	cache := "hit"
	if !ok {
		cache = "miss"
		i = r.tr.begin("trace.build_graph", root, req)
		g, err = dr.Trace.BuildGraph()
		r.tr.end(i)
		if err != nil {
			return err
		}
	}
	if cold == ok {
		return fmt.Errorf("request %d: network cached=%v, want %v", n, ok, !cold)
	}
	i = r.tr.begin("trace.snapshot", root, req)
	snap, err := dr.Trace.SnapshotOn(g)
	r.tr.end(i)
	if err != nil {
		return err
	}
	det, rec, err := r.kernel(req, root, snap, rid)
	if err != nil {
		return err
	}
	r.encode(req, root, &server.DetectResponse{
		Detector: rid.Name(), Initiators: rank(det), Trees: det.Trees, Components: det.Components,
		GraphHash: hash, Cache: cache, StageTimings: rec.StageMillis(), Algo: rec.CounterSetSnapshot(),
		Truth: &server.TruthReport{F1: it.ans.f1(it.ans.want)},
	})
	return nil
}

// batchRequest replays batch-kernel request n: handler, decode, then per
// item Observation.Validate + SnapshotOn and the kernel, then encode.
func (r *replay) batchRequest(n int64, g *sgraph.Graph, rid *core.RID) error {
	idx, body := r.in.bat.request(n)
	req := r.id()
	root := r.tr.begin("request", -1, req)
	defer r.tr.end(root)
	var resp server.DetectBatchResponse
	if r.serve(req, root, routeBatch, http.MethodPost, "/v1/detect/batch", body, &resp) == "" {
		for j, res := range resp.Items {
			if res.Error != "" {
				r.fail(routeBatch, "item error: "+res.Error)
				continue
			}
			r.fail(routeBatch, checkAnswer(res.Initiators, r.in.bat.items[idx[j]].ans))
		}
	}
	var br server.DetectBatchRequest
	if err := r.decode(req, root, body, &br); err != nil {
		return err
	}
	out := &server.DetectBatchResponse{Detector: rid.Name(), GraphHash: br.GraphHash, Cache: "hit"}
	for j := range br.Items {
		item := &br.Items[j]
		i := r.tr.begin("trace.snapshot", root, req)
		err := item.Validate(g.NumNodes())
		var snap *cascade.Snapshot
		if err == nil {
			snap, err = item.SnapshotOn(g)
		}
		r.tr.end(i)
		if err != nil {
			return err
		}
		det, rec, err := r.kernel(req, root, snap, rid)
		if err != nil {
			return err
		}
		out.Items = append(out.Items, server.BatchItemResult{
			Name: item.Name, Initiators: rank(det), Trees: det.Trees, Components: det.Components,
			Algo: rec.CounterSetSnapshot(),
		})
	}
	r.encode(req, root, out)
	return nil
}

// session replays one session-stream session through the handler and, in
// step, through a directly driven ingest.Session: each event batch is
// decoded and applied, and each checkpoint is detected incrementally, then
// one-shot (snapshot plus kernel) on the same prefix, and encoded.
func (r *replay) session(n int64, g *sgraph.Graph, rid *core.RID) error {
	s := r.in.sess
	item := &s.sessions[n%int64(len(s.sessions))]
	var created server.SessionResponse
	if f := r.serve(r.id(), -1, routeSessionCreate, http.MethodPost, "/v1/sessions", s.create, &created); f != "" {
		return nil // counted as a failure
	}
	path := "/v1/sessions/" + created.SessionID
	defer r.serve(r.id(), -1, routeSessionDelete, http.MethodDelete, path, nil, nil)
	direct, err := ingest.NewSession(g, s.net.hash, core.RIDConfig{Beta: beta})
	if err != nil {
		return err
	}
	obsCodes := make([]int8, g.NumNodes())
	for b, body := range item.bodies {
		req := r.id()
		root := r.tr.begin("request", -1, req)
		if r.serve(req, -1, routeSessionEvents, http.MethodPost, path+"/events", body, nil) != "" {
			r.tr.end(root)
			return nil
		}
		var er server.EventsRequest
		if err := r.decode(req, root, body, &er); err != nil {
			return err
		}
		if err := r.apply(req, root, direct, er.Events); err != nil {
			return err
		}
		r.tr.end(root)
		for _, e := range er.Events {
			obsCodes[e.To] = e.State
		}
		ans := item.checks[b]
		if ans == nil {
			continue
		}
		req = r.id()
		root = r.tr.begin("request", -1, req)
		var resp server.SessionDetectResponse
		if r.serve(req, root, routeSessionDetect, http.MethodGet, path+"/detect", nil, &resp) == "" {
			r.fail(routeSessionDetect, checkAnswer(resp.Initiators, ans))
		}
		det, stats, rec, err := r.sessionDetect(req, root, direct)
		if err != nil {
			return err
		}
		r.fail(routeSessionDetect, checkAnswer(rank(det), ans))
		obsv := &trace.Observation{Observed: obsCodes}
		i := r.tr.begin("trace.snapshot", root, req)
		err = obsv.Validate(g.NumNodes())
		var snap *cascade.Snapshot
		if err == nil {
			snap, err = obsv.SnapshotOn(g)
		}
		r.tr.end(i)
		if err != nil {
			return err
		}
		if _, _, err := r.kernel(req, root, snap, rid); err != nil {
			return err
		}
		r.encode(req, root, &server.SessionDetectResponse{
			Detector: "RID(incremental)", Initiators: rank(det), Trees: det.Trees, Components: det.Components,
			Dirty: stats.Dirty, Reused: stats.Reused, GraphHash: s.net.hash,
			StageTimings: rec.StageMillis(), Algo: rec.CounterSetSnapshot(),
		})
		r.tr.end(root)
	}
	return nil
}

func (r *replay) apply(req int64, parent int, sess *ingest.Session, events []trace.Event) error {
	i := r.tr.begin("ingest.apply", parent, req)
	applied, err := sess.Apply(r.ctx, events)
	r.tr.end(i)
	if err == nil && applied != len(events) {
		err = fmt.Errorf("applied %d of %d events", applied, len(events))
	}
	return err
}

func (r *replay) sessionDetect(req int64, parent int, sess *ingest.Session) (*core.Detection, ingest.DetectStats, *obs.Recorder, error) {
	rec := obs.NewRecorder()
	i := r.tr.begin("ingest.detect", parent, req)
	det, stats, err := sess.Detect(obs.WithRecorder(r.ctx, rec))
	r.tr.end(i)
	r.tr.count("ingest.dirty", req, float64(stats.Dirty))
	r.tr.count("ingest.reused", req, float64(stats.Reused))
	return det, stats, rec, err
}

// ingestOutbreak replays one detection's outbreak (a full trace) as an
// event stream through a directly driven session, for workloads whose
// traffic has no sessions. The final checkpoint must equal the oracle.
func (r *replay) ingestOutbreak(t *trace.Trace, g *sgraph.Graph, ans *answer) error {
	events, err := ingest.EventsFromTrace(t)
	if err != nil {
		return err
	}
	sess, err := ingest.NewSession(g, "", core.RIDConfig{Beta: beta})
	if err != nil {
		return err
	}
	nb := (len(events) + eventsPerPost - 1) / eventsPerPost
	for b := 0; b < nb; b++ {
		req := r.id()
		root := r.tr.begin("request", -1, req)
		if err := r.apply(req, root, sess, events[b*eventsPerPost:min((b+1)*eventsPerPost, len(events))]); err != nil {
			return err
		}
		if checkpoint(b, nb) {
			det, _, _, err := r.sessionDetect(req, root, sess)
			if err != nil {
				return err
			}
			if b == nb-1 {
				r.fail("ingest", checkAnswer(rank(det), ans))
			}
		}
		r.tr.end(root)
	}
	return nil
}

// outbreakTrace rebuilds detection n's full trace and graph for the
// ingest replay of a workload without sessions.
func (r *replay) outbreakTrace(n int64) (*trace.Trace, *sgraph.Graph, *answer, error) {
	if w := r.in.wire; w != nil {
		it, _ := w.schedule(n)
		body := append(append([]byte(nil), w.nets[it.net].prefix...), it.body...)
		var req server.DetectRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, nil, nil, err
		}
		g, err := req.Trace.BuildGraph()
		return req.Trace, g, it.ans, err
	}
	b := r.in.bat
	item := &b.items[n%int64(len(b.items))]
	var o trace.Observation
	if err := json.Unmarshal(item.json, &o); err != nil {
		return nil, nil, nil, err
	}
	return o.Trace(b.net.trace), r.graphs[b.net.hash], item.ans, nil
}

// ladder lists the rungs whose self times add up to the handler's work on
// each workload; the handler's remainder is server.unaccounted_ms.
var ladder = map[string][]string{
	"wire-detect":    {"server.decode", "trace.validate", "trace.hash", "trace.build_graph", "trace.snapshot", "core.detect", "server.encode"},
	"batch-kernel":   {"server.decode", "trace.snapshot", "core.detect", "server.encode"},
	"session-stream": {"ingest.detect", "server.encode"},
}

// timedLayers maps per-layer metric names to span names.
var timedLayers = [][2]string{
	{"server.handler_ms", "server.handler"},
	{"server.decode_ms", "server.decode"},
	{"server.encode_ms", "server.encode"},
	{"trace.validate_ms", "trace.validate"},
	{"trace.hash_ms", "trace.hash"},
	{"trace.build_graph_ms", "trace.build_graph"},
	{"trace.snapshot_ms", "trace.snapshot"},
	{"cascade.components_ms", "cascade.components"},
	{"cascade.extract_ms", "cascade.extract"},
	{"arbor.solve_ms", "arbor.solve"},
	{"isomit.tree_dp_ms", "isomit.tree_dp"},
	{"core.detect_ms", "core.detect"},
	{"ingest.apply_ms", "ingest.apply"},
	{"ingest.detect_ms", "ingest.detect"},
}

var countedLayers = [][2]string{
	{"cascade.edges_scanned", "count"},
	{"cascade.trees", "count"},
	{"arbor.heap_ops", "count"},
	{"arbor.cycles_contracted", "count"},
	{"isomit.dp_cells", "count"},
	{"core.alloc_bytes", "bytes"},
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// runTraced runs a load phase of half the time against ridserve (for the
// untraced detect latency and the server's cache counters) and then the
// in-process traced replay for the other half.
func runTraced(in *inputs, serverBin string, sh shape, spansPath string, rep *report) (*result, error) {
	half := sh.measure / 2
	setupTally := newTally()
	p, c, d, err := setUp(in, serverBin, setupTally)
	if err != nil {
		return nil, err
	}
	lp, err := drive(in, p, c, shape{measure: half, warmup: sh.warmup})
	p.stop()
	if err != nil {
		return nil, err
	}
	var lat []float64
	for i := range lp.measured.outcomes {
		if o := &lp.measured.outcomes[i]; o.ok() && o.detections > 0 {
			lat = append(lat, ms(o.latency))
		}
	}
	hits := lp.after.Cache.Hits - lp.before.Cache.Hits
	lookups := hits + lp.after.Cache.Misses - lp.before.Cache.Misses

	// The in-process server logs like ridserve's default (text, info) but
	// to nowhere.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv := server.New(server.Config{})
	defer srv.Shutdown(context.Background())
	r := &replay{in: in, tr: newTracer(), h: srv.Handler(), ctx: context.Background(), t: newTally(), graphs: map[string]*sgraph.Graph{}}
	if err := r.prime(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(half)
	ingestFrom := time.Now().Add(half * 3 / 4)
	var n int64
	switch {
	case in.wire != nil:
		rid, err := core.NewRID(ridConfig(0))
		if err != nil {
			return nil, err
		}
		for ; n == 0 || time.Now().Before(ingestFrom); n++ {
			if err := r.wireRequest(n, rid); err != nil {
				return nil, err
			}
		}
	case in.bat != nil:
		g := r.graphs[in.bat.net.hash]
		if err := r.networkPath(in.bat.net.trace, 3); err != nil {
			return nil, err
		}
		rid, err := core.NewRID(ridConfig(1))
		if err != nil {
			return nil, err
		}
		for ; n == 0 || time.Now().Before(ingestFrom); n++ {
			if err := r.batchRequest(n, g, rid); err != nil {
				return nil, err
			}
		}
	default:
		g := r.graphs[in.sess.net.hash]
		if err := r.networkPath(in.sess.net.trace, 3); err != nil {
			return nil, err
		}
		rid, err := core.NewRID(ridConfig(0))
		if err != nil {
			return nil, err
		}
		for n = 0; n == 0 || time.Now().Before(deadline); n++ {
			if err := r.session(n, g, rid); err != nil {
				return nil, err
			}
		}
	}
	if in.sess == nil {
		for k := int64(0); k == 0 || time.Now().Before(deadline); k++ {
			t, g, ans, err := r.outbreakTrace(k)
			if err != nil {
				return nil, err
			}
			if err := r.ingestOutbreak(t, g, ans); err != nil {
				return nil, err
			}
		}
	}
	if spansPath != "" {
		if err := r.tr.write(spansPath, in.name); err != nil {
			return nil, err
		}
		rep.Spans = spansPath
	}

	self := r.tr.selfTimes()
	res := &result{Metrics: map[string]metric{}}
	for _, l := range timedLayers {
		res.Metrics[l[0]] = metric{median(values(self[l[1]])), "ms"}
	}
	for _, l := range countedLayers {
		res.Metrics[l[0]] = metric{median(values(r.tr.counts[l[0]])), l[1]}
	}
	var unaccounted []float64
	for req, h := range self["server.handler"] {
		for _, rung := range ladder[in.name] {
			h -= self[rung][req]
		}
		unaccounted = append(unaccounted, h)
	}
	handler := res.Metrics["server.handler_ms"].Value
	res.Metrics["server.unaccounted_ms"] = metric{median(unaccounted), "ms"}
	res.Metrics["server.cache_hit_ratio"] = metric{float64(hits) / float64(max(lookups, 1)), "ratio"}
	res.Metrics["server.socket_gap_ms"] = metric{median(lat) - handler, "ms"}
	dirty, reused := 0.0, 0.0
	for _, v := range r.tr.counts["ingest.dirty"] {
		dirty += v
	}
	for _, v := range r.tr.counts["ingest.reused"] {
		reused += v
	}
	res.Metrics["ingest.reuse_ratio"] = metric{reused / max(dirty+reused, 1), "ratio"}

	rep.SetupS = []float64{d.Seconds()}
	rep.Phases["setup"] = setupTally.counts()
	rep.Phases["warmup"] = lp.warm.counts()
	rep.Phases["measured"] = lp.measured.counts()
	rep.Phases["replay"] = r.t.counts()
	rep.Samples["detect"] = len(lat)
	rep.Samples["replayed_handler_calls"] = len(self["server.handler"])
	rep.CrossCheck = lp.diffs
	rep.ServerGOMAXPROCS = lp.after.Build.GOMAXPROCS
	rep.ClientGOMAXPROCS = clientProcs
	if handler > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("ladder accounts for %.1f%% of server.handler_ms",
			100*(1-res.Metrics["server.unaccounted_ms"].Value/handler)))
	}
	finish(res, rep, setupTally, lp.warm, lp.measured, r.t)
	return res, nil
}
