package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// batchItems derives several distinct valid observations from one trace:
// the original, plus variants with every k-th infected node's state
// cleared to uninfected (shrinking or splitting components).
func batchItems(tr *trace.Trace, n int) []trace.Observation {
	items := make([]trace.Observation, n)
	for i := range items {
		o := *tr.Observation()
		o.Seeds, o.SeedStates = nil, nil
		if i > 0 {
			observed := append([]int8(nil), o.Observed...)
			kept := 0
			for v, c := range observed {
				if c == 1 || c == -1 {
					kept++
					if kept%(i+2) == 0 {
						observed[v] = 0
					}
				}
			}
			o.Observed = observed
		}
		items[i] = o
	}
	return items
}

// TestDetectBatch pins each batch item's result to the one-shot /v1/detect
// answer for the equivalent full trace: same initiators, trees, components.
func TestDetectBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 7, 300, 1800, 6)
	items := batchItems(tr, 4)

	resp, body := postJSON(t, ts, "/v1/detect/batch", DetectBatchRequest{
		Trace: tr, Items: items, Detector: "rid", Beta: 0.3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var batch DetectBatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Failed != 0 || len(batch.Items) != len(items) {
		t.Fatalf("failed=%d items=%d, want 0 and %d", batch.Failed, len(batch.Items), len(items))
	}
	if batch.GraphHash != tr.NetworkHash() {
		t.Fatalf("graph hash %q, want %q", batch.GraphHash, tr.NetworkHash())
	}
	if batch.Algo == nil {
		t.Fatal("batch response has no aggregated algo counters")
	}
	for i, item := range items {
		full := item.Trace(tr)
		resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: full, Detector: "rid", Beta: 0.3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("item %d reference: status = %d, body %s", i, resp.StatusCode, body)
		}
		var want DetectResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		got := batch.Items[i]
		if !reflect.DeepEqual(got.Initiators, want.Initiators) {
			t.Fatalf("item %d initiators differ from one-shot detect\nwant %+v\ngot  %+v", i, want.Initiators, got.Initiators)
		}
		if got.Trees != want.Trees || got.Components != want.Components {
			t.Fatalf("item %d trees/components %d/%d, want %d/%d", i, got.Trees, got.Components, want.Trees, want.Components)
		}
		if got.Algo == nil {
			t.Fatalf("item %d has no algo counters", i)
		}
	}
}

// TestDetectBatchItemIsolation checks one malformed item fails alone: the
// batch still answers 200 with every other item solved.
func TestDetectBatchItemIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 8, 200, 1200, 4)
	items := batchItems(tr, 3)
	items[1].Observed = items[1].Observed[:10] // wrong length

	resp, body := postJSON(t, ts, "/v1/detect/batch", DetectBatchRequest{Trace: tr, Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var batch DetectBatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Failed != 1 {
		t.Fatalf("failed = %d, want 1", batch.Failed)
	}
	if batch.Items[1].Error == "" || batch.Items[1].Initiators != nil {
		t.Fatalf("bad item not isolated: %+v", batch.Items[1])
	}
	for _, i := range []int{0, 2} {
		if batch.Items[i].Error != "" || len(batch.Items[i].Initiators) == 0 {
			t.Fatalf("good item %d affected: %+v", i, batch.Items[i])
		}
	}
}

// TestDetectBatchGraphHash runs a batch against a previously cached
// network by hash, and checks an unknown hash answers 404.
func TestDetectBatchGraphHash(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 9, 200, 1200, 4)

	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status = %d, body %s", resp.StatusCode, body)
	}
	var primed DetectResponse
	if err := json.Unmarshal(body, &primed); err != nil {
		t.Fatal(err)
	}

	resp, body = postJSON(t, ts, "/v1/detect/batch", DetectBatchRequest{
		GraphHash: primed.GraphHash, Items: batchItems(tr, 2),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var batch DetectBatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Cache != "hit" || batch.Failed != 0 {
		t.Fatalf("cache=%q failed=%d, want hit and 0", batch.Cache, batch.Failed)
	}
	if !reflect.DeepEqual(batch.Items[0].Initiators, primed.Initiators) {
		t.Fatal("hash-addressed batch differs from the priming detect")
	}

	resp, _ = postJSON(t, ts, "/v1/detect/batch", DetectBatchRequest{
		GraphHash: "deadbeefdeadbeefdeadbeefdeadbeef", Items: batchItems(tr, 1),
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash: status = %d, want 404", resp.StatusCode)
	}
}

func TestDetectBatchRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 10, 120, 700, 3)
	for name, req := range map[string]DetectBatchRequest{
		"no network":       {Items: batchItems(tr, 1)},
		"both networks":    {Trace: tr, GraphHash: tr.NetworkHash(), Items: batchItems(tr, 1)},
		"no items":         {Trace: tr},
		"unknown detector": {Trace: tr, Items: batchItems(tr, 1), Detector: "nope"},
		"negative k":       {Trace: tr, Items: batchItems(tr, 1), K: -1},
	} {
		resp, _ := postJSON(t, ts, "/v1/detect/batch", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestDetectBinaryContentType posts the same instance as JSON and as a
// binary trace (Content-Type application/x-rid-trace, options in the query
// string) and requires identical detection results.
func TestDetectBinaryContentType(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 11, 200, 1200, 4)

	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json: status = %d, body %s", resp.StatusCode, body)
	}
	var want DetectResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	raw := trace.MarshalBinary(tr)
	resp, err := ts.Client().Post(ts.URL+"/v1/detect?detector=rid&beta=0.3&k=5",
		trace.BinaryContentType, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary: status = %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(got.Initiators, want.Initiators) || got.GraphHash != want.GraphHash {
		t.Fatalf("binary-posted detect differs from JSON\nwant %+v\ngot  %+v", want, got)
	}

	// A corrupted frame is a 400, reported through the codec's error.
	raw[len(raw)/2] ^= 0xFF
	resp, err = ts.Client().Post(ts.URL+"/v1/detect", trace.BinaryContentType, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt binary: status = %d, want 400", resp.StatusCode)
	}

	// Malformed query options are rejected before any compute.
	resp, err = ts.Client().Post(ts.URL+"/v1/detect?beta=x", trace.BinaryContentType,
		bytes.NewReader(trace.MarshalBinary(tr)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status = %d, want 400", resp.StatusCode)
	}
}

// TestDetectBatchExpiredContextMarksAllItems pins the partial-result
// contract at its boundary: a batch whose context is already dead before
// the fan-out still returns an index-aligned response (not an error) with
// every item carrying the batch-wide cause in its own Error field.
func TestDetectBatchExpiredContextMarksAllItems(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	tr := sampleTrace(t, 12, 120, 700, 3)
	items := batchItems(tr, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	detector, err := newDetector("", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.detectBatch(ctx, &DetectBatchRequest{Trace: tr, Items: items}, detector)
	if err != nil {
		t.Fatalf("detectBatch returned error %v, want partial response", err)
	}
	if resp.Failed != len(items) || len(resp.Items) != len(items) {
		t.Fatalf("failed=%d items=%d, want %d and %d", resp.Failed, len(resp.Items), len(items), len(items))
	}
	for i, it := range resp.Items {
		if it.Error == "" || it.Initiators != nil {
			t.Fatalf("item %d not marked with the batch-wide cause: %+v", i, it)
		}
		if it.Name != items[i].Name {
			t.Fatalf("item %d name %q misaligned with request %q", i, it.Name, items[i].Name)
		}
	}
}

// TestDetectBatchDeadlineKeepsCompletedItems checks that a deadline firing
// mid-batch costs only the unfinished items: the response is still a 200
// whose completed entries carry full results while the rest report the
// deadline in their Error field. Absolute timings vary across runners, so
// the test walks a ladder of shrinking timeouts against a cached graph
// and requires both outcomes — at least one deadline-failed item and at
// least one completed item — to appear somewhere on the ladder.
func TestDetectBatchDeadlineKeepsCompletedItems(t *testing.T) {
	_, ts := newTestServer(t, Config{Parallelism: 1})
	// A wide cascade (400 seeds on 20k nodes) makes each item cost a few
	// milliseconds, so the item fan-out dominates the batch and the ladder
	// below reliably catches it mid-flight.
	tr := sampleTrace(t, 13, 20000, 120000, 400)
	items := batchItems(tr, 96)

	// Prime the graph cache so the timed runs spend their budget on items,
	// not on graph construction.
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status = %d, body %s", resp.StatusCode, body)
	}
	var primed DetectResponse
	if err := json.Unmarshal(body, &primed); err != nil {
		t.Fatal(err)
	}

	sawFailed, sawCompleted := false, false
	// Rungs span ~3 orders of magnitude: the top absorbs slow runners and
	// the race detector's ~10-20× slowdown, the bottom catches fast ones.
	// A failing rung only costs its own timeout, so the ladder stays cheap.
	for _, timeoutMS := range []int{400, 100, 25, 5, 1} {
		resp, body := postJSON(t, ts, "/v1/detect/batch", DetectBatchRequest{
			GraphHash: primed.GraphHash, Items: items, TimeoutMS: timeoutMS,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("timeout_ms=%d: status = %d, want 200 with partial results (body %s)",
				timeoutMS, resp.StatusCode, body)
		}
		var batch DetectBatchResponse
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch.Items) != len(items) {
			t.Fatalf("timeout_ms=%d: items = %d, want %d", timeoutMS, len(batch.Items), len(items))
		}
		failed := 0
		for i, it := range batch.Items {
			switch {
			case it.Error != "":
				failed++
				if len(it.Initiators) != 0 {
					t.Fatalf("timeout_ms=%d: item %d has both an error and results: %+v", timeoutMS, i, it)
				}
			case len(it.Initiators) == 0:
				t.Fatalf("timeout_ms=%d: item %d neither completed nor marked failed: %+v", timeoutMS, i, it)
			}
		}
		if failed != batch.Failed {
			t.Fatalf("timeout_ms=%d: failed counter %d, but %d items carry errors", timeoutMS, batch.Failed, failed)
		}
		sawFailed = sawFailed || failed > 0
		sawCompleted = sawCompleted || failed < len(items)
		t.Logf("timeout_ms=%d failed=%d elapsed=%.3f", timeoutMS, failed, batch.ElapsedMS)
		if sawFailed && sawCompleted {
			return
		}
	}
	if !sawFailed {
		t.Fatal("no timeout on the ladder ever fired mid-batch; workload too small for this runner")
	}
	t.Fatal("every timed run failed every item; even the largest timeout could not finish one item")
}
