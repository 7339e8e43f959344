package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"net/http"

	"repro/internal/server"
)

// workload is one traffic mix. unit runs schedule entry n — one request,
// or for session-stream one whole session — and records what happened.
type workload interface {
	// primes are the setup-phase /v1/detect requests, one per network the
	// workload keeps cached.
	primes() []primeReq
	unit(c *client, n int64, t *tally)
}

type primeReq struct {
	body []byte
	hash string
	ans  *answer
}

// checkAnswer compares a served ranking with the oracle.
func checkAnswer(got []server.RankedInitiator, ans *answer) string {
	if d := ans.match(got); d != "" {
		return "oracle mismatch: " + d
	}
	return ""
}

// prime sends one setup request and checks its answer.
func prime(c *client, p primeReq, t *tally) {
	var resp server.DetectResponse
	status, lat, err := c.do(http.MethodPost, "/v1/detect", bytes.NewReader(p.body), len(p.body), &resp)
	o := outcome{route: routeDetect, status: status, latency: lat, cache: resp.Cache}
	switch {
	case err != nil:
		o.failure = err.Error()
	case resp.GraphHash != p.hash:
		o.failure = fmt.Sprintf("graph_hash %s, want %s", resp.GraphHash, p.hash)
	default:
		o.failure = checkAnswer(resp.Initiators, p.ans)
	}
	if o.ok() {
		o.detections = 1
	}
	t.add(o)
}

type wireWorkload struct{ in *wireInputs }

// wireQuality is how many leading wire-detect requests initiator_f1
// averages over; each carries a distinct outbreak. Batch items and
// sessions are scored over their whole pool.
const wireQuality = 384

func (w *wireWorkload) primes() []primeReq {
	out := make([]primeReq, len(w.in.prime))
	for i := range w.in.prime {
		it := &w.in.prime[i]
		net := &w.in.nets[it.net]
		body := append(append([]byte(nil), net.prefix...), it.body...)
		out[i] = primeReq{body: body, hash: net.hash, ans: it.ans}
	}
	return out
}

func (w *wireWorkload) unit(c *client, n int64, t *tally) {
	it, cold := w.in.schedule(n)
	net := &w.in.nets[it.net]
	body := io.MultiReader(bytes.NewReader(net.prefix), bytes.NewReader(it.body))
	var resp server.DetectResponse
	status, lat, err := c.do(http.MethodPost, "/v1/detect", body, len(net.prefix)+len(it.body), &resp)
	o := outcome{route: routeDetect, status: status, latency: lat, cache: resp.Cache, cacheWant: "hit"}
	if cold {
		o.cacheWant = "miss"
	}
	switch {
	case err != nil:
		o.failure = err.Error()
	case resp.GraphHash != net.hash:
		o.failure = fmt.Sprintf("graph_hash %s, want %s", resp.GraphHash, net.hash)
	default:
		o.failure = checkAnswer(resp.Initiators, it.ans)
	}
	if o.ok() {
		o.detections = 1
		if n < wireQuality {
			t.quality(int(n), it.ans.f1(resp.Initiators))
		}
	}
	t.add(o)
}

type batchWorkload struct{ in *batchInputs }

func (b *batchWorkload) primes() []primeReq {
	return []primeReq{{body: b.in.net.prime, hash: b.in.net.hash, ans: b.in.net.answer}}
}

func (b *batchWorkload) unit(c *client, n int64, t *tally) {
	idx, body := b.in.request(n)
	var resp server.DetectBatchResponse
	status, lat, err := c.do(http.MethodPost, "/v1/detect/batch", bytes.NewReader(body), len(body), &resp)
	o := outcome{route: routeBatch, status: status, latency: lat, cache: resp.Cache, cacheWant: "hit"}
	switch {
	case err != nil:
		o.failure = err.Error()
	case len(resp.Items) != len(idx):
		o.failure = fmt.Sprintf("%d items answered, %d sent", len(resp.Items), len(idx))
	default:
		mismatches, first := 0, ""
		for j, res := range resp.Items {
			it := &b.in.items[idx[j]]
			if res.Error != "" {
				o.itemErrors++
				first = cmp.Or(first, "item error: "+res.Error)
				continue
			}
			if d := checkAnswer(res.Initiators, it.ans); d != "" {
				mismatches++
				first = cmp.Or(first, d)
				continue
			}
			o.detections++
			t.quality(idx[j], it.ans.f1(res.Initiators))
		}
		if o.itemErrors+mismatches > 0 {
			o.failure = fmt.Sprintf("%d item errors, %d oracle mismatches; first: %s", o.itemErrors, mismatches, first)
		}
	}
	t.add(o)
}

type sessionWorkload struct{ in *sessionInputs }

func (s *sessionWorkload) primes() []primeReq {
	return []primeReq{{body: s.in.net.prime, hash: s.in.net.hash, ans: s.in.net.answer}}
}

// unit runs one session: create by graph_hash, post the outbreak's events
// in batches with a detect at every checkpoint, then delete. A failed step
// ends the session early; the delete is still sent.
func (s *sessionWorkload) unit(c *client, n int64, t *tally) {
	id := int(n % int64(len(s.in.sessions)))
	item := &s.in.sessions[id]
	var created server.SessionResponse
	status, lat, err := c.do(http.MethodPost, "/v1/sessions", bytes.NewReader(s.in.create), len(s.in.create), &created)
	o := outcome{route: routeSessionCreate, status: status, latency: lat, cache: created.Cache, cacheWant: "hit"}
	if err != nil {
		o.failure = err.Error()
		t.add(o)
		return
	}
	t.add(o)
	path := "/v1/sessions/" + created.SessionID
	for b, body := range item.bodies {
		var ev server.EventsResponse
		status, lat, err := c.do(http.MethodPost, path+"/events", bytes.NewReader(body), len(body), &ev)
		o := outcome{route: routeSessionEvents, status: status, latency: lat}
		switch {
		case err != nil:
			o.failure = err.Error()
		case ev.Applied != len(item.batches[b]) || ev.Error != "":
			o.failure = fmt.Sprintf("applied %d of %d events: %s", ev.Applied, len(item.batches[b]), ev.Error)
		}
		t.add(o)
		if !o.ok() {
			break
		}
		ans := item.checks[b]
		if ans == nil {
			continue
		}
		var det server.SessionDetectResponse
		status, lat, err = c.do(http.MethodGet, path+"/detect", nil, 0, &det)
		o = outcome{route: routeSessionDetect, status: status, latency: lat}
		if err != nil {
			o.failure = err.Error()
		} else {
			o.failure = checkAnswer(det.Initiators, ans)
		}
		if o.ok() {
			o.detections = 1
			if ans.seeds != nil {
				t.quality(id, ans.f1(det.Initiators))
			}
		}
		t.add(o)
		if !o.ok() {
			break
		}
	}
	status, lat, err = c.do(http.MethodDelete, path, nil, 0, nil)
	o = outcome{route: routeSessionDelete, status: status, latency: lat}
	if err != nil {
		o.failure = err.Error()
	}
	t.add(o)
}
