package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/trace"
)

func deleteReq(tb testing.TB, ts *httptest.Server, path string) (*http.Response, []byte) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, body
}

// TestSessionLifecycle walks the full streaming flow: one-shot detect (its
// graph_hash in the response is the session handle — satellite
// confirmation that /v1/detect returns it), session creation by hash,
// event batches, incremental detects converging to the one-shot answer,
// and deletion.
func TestSessionLifecycle(t *testing.T) {
	tr := sampleTrace(t, 77, 150, 700, 3)
	_, ts := newTestServer(t, Config{})

	// One-shot detect: pins graph_hash presence and caches the network.
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d %s", resp.StatusCode, body)
	}
	var oneShot DetectResponse
	if err := json.Unmarshal(body, &oneShot); err != nil {
		t.Fatal(err)
	}
	if oneShot.GraphHash == "" {
		t.Fatal("/v1/detect response missing graph_hash")
	}
	if oneShot.GraphHash != tr.NetworkHash() {
		t.Fatalf("graph_hash %q, want %q", oneShot.GraphHash, tr.NetworkHash())
	}

	// Create a session by the returned hash — no trace re-upload.
	resp, body = postJSON(t, ts, "/v1/sessions", SessionRequest{GraphHash: oneShot.GraphHash, Beta: 0.3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.SessionID == "" || sr.GraphHash != oneShot.GraphHash || sr.Cache != "hit" || sr.Nodes != tr.Nodes {
		t.Fatalf("session response wrong: %+v", sr)
	}

	// Detect before any event: 400.
	resp, body = getBody(t, ts, "/v1/sessions/"+sr.SessionID+"/detect")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-session detect: %d %s", resp.StatusCode, body)
	}

	// Stream the trace's events in two batches.
	events, err := ingest.EventsFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	for _, batch := range [][]trace.Event{events[:half], events[half:]} {
		resp, body = postJSON(t, ts, "/v1/sessions/"+sr.SessionID+"/events", EventsRequest{Events: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events: %d %s", resp.StatusCode, body)
		}
		var er EventsResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Applied != len(batch) {
			t.Fatalf("applied %d of %d: %s", er.Applied, len(batch), body)
		}
		resp, body = getBody(t, ts, "/v1/sessions/"+sr.SessionID+"/detect")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session detect: %d %s", resp.StatusCode, body)
		}
	}
	var sd SessionDetectResponse
	if err := json.Unmarshal(body, &sd); err != nil {
		t.Fatal(err)
	}
	// After the full stream, the incremental detection must equal the
	// one-shot detect on the same snapshot, initiator for initiator.
	if sd.GraphHash != oneShot.GraphHash {
		t.Fatalf("session detect graph_hash %q, want %q", sd.GraphHash, oneShot.GraphHash)
	}
	if sd.Trees != oneShot.Trees || sd.Components != oneShot.Components {
		t.Fatalf("shape differs: session {trees %d comps %d}, one-shot {trees %d comps %d}",
			sd.Trees, sd.Components, oneShot.Trees, oneShot.Components)
	}
	if !reflect.DeepEqual(sd.Initiators, oneShot.Initiators) {
		t.Fatalf("initiators differ:\nsession:  %+v\none-shot: %+v", sd.Initiators, oneShot.Initiators)
	}
	if sd.Dirty+sd.Reused != sd.Components {
		t.Fatalf("dirty %d + reused %d != components %d", sd.Dirty, sd.Reused, sd.Components)
	}
	if sd.Algo == nil || sd.Algo.Ingest.ComponentsDirty != int64(sd.Dirty) {
		t.Fatalf("algo_counters missing ingest accounting: %+v", sd.Algo)
	}

	// A repeat detect reuses every component.
	resp, body = getBody(t, ts, "/v1/sessions/"+sr.SessionID+"/detect")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat detect: %d %s", resp.StatusCode, body)
	}
	var sd2 SessionDetectResponse
	if err := json.Unmarshal(body, &sd2); err != nil {
		t.Fatal(err)
	}
	if sd2.Dirty != 0 || sd2.Reused != sd2.Components {
		t.Fatalf("repeat detect should reuse everything: %+v", sd2)
	}
	if !reflect.DeepEqual(sd2.Initiators, sd.Initiators) {
		t.Fatal("repeat detect changed the result")
	}

	// Delete, then every session route 404s.
	resp, body = deleteReq(t, ts, "/v1/sessions/"+sr.SessionID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	resp, _ = deleteReq(t, ts, "/v1/sessions/"+sr.SessionID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}
	resp, _ = getBody(t, ts, "/v1/sessions/"+sr.SessionID+"/detect")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detect after delete: %d", resp.StatusCode)
	}
}

// TestSessionDetectCountsCascadeWork checks a session detect's
// algo_counters account for the components it re-solved: each dirty
// component is counted once with its infected nodes and trees, and each
// tree is sized and solved once.
func TestSessionDetectCountsCascadeWork(t *testing.T) {
	tr := sampleTrace(t, 77, 150, 700, 3)
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/sessions", SessionRequest{Trace: tr, Beta: 0.3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	events, err := ingest.EventsFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	for i, batch := range [][]trace.Event{events[:half], events[half:]} {
		if resp, body := postJSON(t, ts, "/v1/sessions/"+sr.SessionID+"/events", EventsRequest{Events: batch}); resp.StatusCode != http.StatusOK {
			t.Fatalf("events: %d %s", resp.StatusCode, body)
		}
		resp, body := getBody(t, ts, "/v1/sessions/"+sr.SessionID+"/detect")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session detect: %d %s", resp.StatusCode, body)
		}
		var sd SessionDetectResponse
		if err := json.Unmarshal(body, &sd); err != nil {
			t.Fatal(err)
		}
		if sd.Dirty == 0 || sd.Algo == nil {
			t.Fatalf("detect %d re-solved nothing: %s", i, body)
		}
		c := sd.Algo.Cascade
		if c.Trees == 0 || c.Trees != c.TreeSize.Count() || c.Trees != sd.Algo.ISOMIT.LocalSolves {
			t.Errorf("detect %d: cascade.trees %d, tree_size count %d, isomit.local_solves %d; want equal and > 0",
				i, c.Trees, c.TreeSize.Count(), sd.Algo.ISOMIT.LocalSolves)
		}
		if c.Components != sd.Algo.Ingest.ComponentsDirty || c.Components != int64(sd.Dirty) {
			t.Errorf("detect %d: cascade.components %d, ingest.components_dirty %d, dirty %d; want equal",
				i, c.Components, sd.Algo.Ingest.ComponentsDirty, sd.Dirty)
		}
		if c.InfectedNodes == 0 || c.InfectedNodes != c.TreeSize.Sum {
			t.Errorf("detect %d: cascade.infected_nodes %d, tree_size sum %d; want equal and > 0",
				i, c.InfectedNodes, c.TreeSize.Sum)
		}
	}
}

func TestSessionCreateValidation(t *testing.T) {
	tr := sampleTrace(t, 78, 60, 240, 2)
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  SessionRequest
		want int
	}{
		{"neither trace nor hash", SessionRequest{}, http.StatusBadRequest},
		{"both trace and hash", SessionRequest{Trace: tr, GraphHash: "abc"}, http.StatusBadRequest},
		{"unknown hash", SessionRequest{GraphHash: "deadbeef"}, http.StatusNotFound},
		{"negative beta", SessionRequest{Trace: tr, Beta: -1}, http.StatusBadRequest},
		{"by trace", SessionRequest{Trace: tr}, http.StatusOK},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts, "/v1/sessions", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	// Partial batch: the valid prefix sticks, the response reports both.
	resp, body := postJSON(t, ts, "/v1/sessions", SessionRequest{Trace: tr})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	events, err := ingest.EventsFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]trace.Event{events[0]}, events[0]) // second is a duplicate target
	resp, body = postJSON(t, ts, "/v1/sessions/"+sr.SessionID+"/events", EventsRequest{Events: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: %d %s", resp.StatusCode, body)
	}
	var er EventsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Applied != 1 || er.Error == "" || er.Infected != 1 {
		t.Fatalf("partial batch response wrong: %+v", er)
	}
}

func TestSessionLimit429(t *testing.T) {
	tr := sampleTrace(t, 79, 40, 160, 2)
	_, ts := newTestServer(t, Config{MaxSessions: 2, SessionTTL: time.Hour})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts, "/v1/sessions", SessionRequest{Trace: tr})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts, "/v1/sessions", SessionRequest{Trace: tr})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestSessionDetectQueryValidation(t *testing.T) {
	tr := sampleTrace(t, 80, 40, 160, 2)
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/sessions", SessionRequest{Trace: tr})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"?k=-1", "?k=x", "?timeout_ms=-5", "?timeout_ms=x"} {
		resp, _ = getBody(t, ts, "/v1/sessions/"+sr.SessionID+"/detect"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	// k truncates the ranked list.
	events, err := ingest.EventsFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts, "/v1/sessions/"+sr.SessionID+"/events", EventsRequest{Events: events})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, ts, fmt.Sprintf("/v1/sessions/%s/detect?k=1", sr.SessionID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d %s", resp.StatusCode, body)
	}
	var sd SessionDetectResponse
	if err := json.Unmarshal(body, &sd); err != nil {
		t.Fatal(err)
	}
	if len(sd.Initiators) != 1 {
		t.Fatalf("k=1 returned %d initiators", len(sd.Initiators))
	}
}
