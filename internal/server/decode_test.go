package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ingest"
)

// postRaw posts body verbatim as JSON and returns the status and the
// decoded error message ("" on success bodies).
func postRaw(tb testing.TB, ts *httptest.Server, path, body string) (int, string, []byte) {
	tb.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		tb.Fatal(err)
	}
	var e errorResponse
	_ = json.Unmarshal(buf.Bytes(), &e)
	return resp.StatusCode, e.Error, buf.Bytes()
}

// TestBadStateCodes400 pins the exact 400 text for malformed state-code
// elements on both wire shapes that carry them: a full trace on
// /v1/detect and batch items on /v1/detect/batch.
func TestBadStateCodes400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	elems := []struct{ name, elem, value string }{
		{"out of range", `300`, `number 300`},
		{"string", `"x"`, `string`},
		{"fraction", `1.5`, `number 1.5`},
	}
	for _, e := range elems {
		t.Run("detect/"+e.name, func(t *testing.T) {
			body := `{"trace":{"version":1,"nodes":2,"edges":[],"observed":[1,` + e.elem + `]}}`
			status, msg, _ := postRaw(t, ts, "/v1/detect", body)
			want := "invalid JSON: json: cannot unmarshal " + e.value + " into Go struct field Trace.trace.observed of type int8"
			if status != http.StatusBadRequest || msg != want {
				t.Fatalf("got %d %q, want 400 %q", status, msg, want)
			}
		})
		t.Run("detect-seed-states/"+e.name, func(t *testing.T) {
			body := `{"trace":{"version":1,"nodes":2,"edges":[],"observed":[1,0],"seeds":[0],"seed_states":[` + e.elem + `]}}`
			status, msg, _ := postRaw(t, ts, "/v1/detect", body)
			want := "invalid JSON: json: cannot unmarshal " + e.value + " into Go struct field Trace.trace.seed_states of type int8"
			if status != http.StatusBadRequest || msg != want {
				t.Fatalf("got %d %q, want 400 %q", status, msg, want)
			}
		})
		t.Run("batch/"+e.name, func(t *testing.T) {
			body := `{"graph_hash":"deadbeef","items":[{"observed":[1,0]},{"observed":[0,` + e.elem + `]}]}`
			status, msg, _ := postRaw(t, ts, "/v1/detect/batch", body)
			want := "invalid JSON: json: cannot unmarshal " + e.value + " into Go struct field Observation.items.observed of type int8"
			if status != http.StatusBadRequest || msg != want {
				t.Fatalf("got %d %q, want 400 %q", status, msg, want)
			}
		})
	}
}

// TestNullStateCodeIsZero pins encoding/json's treatment of a null array
// element: it leaves the element at its zero value, state 0 (uninfected),
// so the item answers exactly like the same array with a literal 0.
func TestNullStateCodeIsZero(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 12, 200, 1200, 4)
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d %s", resp.StatusCode, body)
	}

	zeros := make([]string, len(tr.Observed))
	nulls := make([]string, len(tr.Observed))
	replaced := 0
	for i, c := range tr.Observed {
		zeros[i] = strconv.Itoa(int(c))
		nulls[i] = zeros[i]
		if c == 0 && replaced < 5 {
			nulls[i] = "null"
			replaced++
		}
	}
	if replaced == 0 {
		t.Fatal("sample trace has no uninfected node")
	}
	batch := func(observed []string) DetectBatchResponse {
		t.Helper()
		status, msg, body := postRaw(t, ts, "/v1/detect/batch",
			`{"graph_hash":"`+tr.NetworkHash()+`","items":[{"observed":[`+strings.Join(observed, ",")+`]}]}`)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, msg)
		}
		var out DetectBatchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Failed != 0 {
			t.Fatalf("item failed: %+v", out.Items[0])
		}
		return out
	}
	withZeros, withNulls := batch(zeros), batch(nulls)
	if !reflect.DeepEqual(withNulls.Items[0].Initiators, withZeros.Items[0].Initiators) {
		t.Fatalf("null elements changed the answer: %+v vs %+v", withNulls.Items[0].Initiators, withZeros.Items[0].Initiators)
	}
}

// TestTrailingDataRejected requires every JSON route to reject a body with
// anything but whitespace after its one JSON value, like any other
// malformed body, while trailing whitespace stays accepted.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 13, 200, 1200, 4)

	resp, body := postJSON(t, ts, "/v1/sessions", SessionRequest{Trace: tr})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: %d %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	events, err := ingest.EventsFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}

	routes := []struct {
		name, path string
		// req must be accepted on its own; each call gets a fresh copy so
		// the events route never re-applies an already applied event.
		req func(i int) any
	}{
		{"detect", "/v1/detect", func(int) any { return DetectRequest{Trace: tr} }},
		{"batch", "/v1/detect/batch", func(int) any { return DetectBatchRequest{Trace: tr, Items: batchItems(tr, 1)} }},
		{"simulate", "/v1/simulate", func(int) any { return SimulateRequest{Trace: tr, Initiators: []int{0}, Seed: 1} }},
		{"session-create", "/v1/sessions", func(int) any { return SessionRequest{Trace: tr} }},
		{"session-events", "/v1/sessions/" + sr.SessionID + "/events", func(i int) any { return EventsRequest{Events: events[i : i+1]} }},
	}
	trailers := []struct {
		name, suffix string
		ok           bool
	}{
		{"whitespace", " \n\t\r\n", true},
		{"garbage", "garbage", false},
		{"second object", "{}", false},
		{"closing bracket", "]", false},
		{"number", " 1", false},
	}
	if len(events) < len(trailers) {
		t.Fatalf("sample outbreak has %d events, want >= %d", len(events), len(trailers))
	}
	for _, rt := range routes {
		n := 0
		for _, tc := range trailers {
			t.Run(rt.name+"/"+tc.name, func(t *testing.T) {
				payload, err := json.Marshal(rt.req(n))
				if err != nil {
					t.Fatal(err)
				}
				n++
				status, msg, body := postRaw(t, ts, rt.path, string(payload)+tc.suffix)
				if tc.ok {
					if status != http.StatusOK {
						t.Fatalf("status %d: %s", status, body)
					}
					return
				}
				if status != http.StatusBadRequest || !strings.HasPrefix(msg, "invalid JSON: ") {
					t.Fatalf("got %d %q, want 400 invalid JSON", status, msg)
				}
			})
		}
	}
}
