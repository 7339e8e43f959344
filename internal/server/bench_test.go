package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/trace"
)

// BenchmarkDetectHandler measures one full /v1/detect round trip — JSON
// decode, validation, cache lookup, RID, ranking, JSON encode — through
// the real route table (pool and instrumentation included). After the
// first iteration every request is a graph-cache hit, so this is the
// steady-state serving cost.
func BenchmarkDetectHandler(b *testing.B) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	tr := sampleTrace(b, 42, 2000, 12000, 40)
	payload, err := json.Marshal(DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	handler := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(payload))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status = %d, body %s", rr.Code, rr.Body.Bytes())
		}
	}
}

// batchSize is the fan-out measured by the batch/sequential benchmark
// pair; both do this many detections per op so ns/op compares directly.
const batchSize = 32

// BenchmarkDetectBatch measures one POST /v1/detect/batch with 32
// observation items against a cached network — per-detection cost is
// ns/op ÷ 32. Against BenchmarkDetectSequential (the same 32 detections
// as individual /v1/detect calls) the delta is what batching amortizes:
// one wire-size network decode + hash + cache lookup, one detector
// construction, one response encode, instead of 32 of each.
func BenchmarkDetectBatch(b *testing.B) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	tr := sampleTrace(b, 42, 2000, 12000, 40)
	handler := s.Handler()

	// Prime the graph cache, as a steady-state client would.
	prime, err := json.Marshal(DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(prime)))
	if rr.Code != http.StatusOK {
		b.Fatalf("prime status = %d, body %s", rr.Code, rr.Body.Bytes())
	}

	payload := batchPayload(b, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/detect/batch", bytes.NewReader(payload))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status = %d, body %s", rr.Code, rr.Body.Bytes())
		}
	}
}

// batchPayload is BenchmarkDetectBatch's request body: batchSize copies of
// tr's observation, without ground truth, against tr's network by hash.
func batchPayload(b *testing.B, tr *trace.Trace) []byte {
	obs := *tr.Observation()
	obs.Seeds, obs.SeedStates = nil, nil
	items := make([]trace.Observation, batchSize)
	for i := range items {
		items[i] = obs
	}
	payload, err := json.Marshal(DetectBatchRequest{
		GraphHash: tr.NetworkHash(), Items: items, Detector: "rid", Beta: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

// BenchmarkDecodeBatch isolates the body-decode layer of
// BenchmarkDetectBatch: decodeBody alone on the same 32-item payload.
func BenchmarkDecodeBatch(b *testing.B) {
	payload := batchPayload(b, sampleTrace(b, 42, 2000, 12000, 40))
	maxBytes := Config{}.withDefaults().MaxBodyBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/detect/batch", bytes.NewReader(payload))
		var body DetectBatchRequest
		if err := decodeBody(httptest.NewRecorder(), req, &body, maxBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectSequential is BenchmarkDetectBatch's unbatched baseline:
// the same 32 detections as 32 individual /v1/detect round trips, each
// re-sending and re-validating the full wire trace.
func BenchmarkDetectSequential(b *testing.B) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	tr := sampleTrace(b, 42, 2000, 12000, 40)
	payload, err := json.Marshal(DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	handler := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batchSize; j++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(payload))
			rr := httptest.NewRecorder()
			handler.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				b.Fatalf("status = %d, body %s", rr.Code, rr.Body.Bytes())
			}
		}
	}
}

// BenchmarkDetectHandlerColdCache forces a graph-cache miss on every
// request by alternating two networks through a size-1 cache — the delta
// against BenchmarkDetectHandler is what the cache saves.
func BenchmarkDetectHandlerColdCache(b *testing.B) {
	s := New(Config{CacheSize: 1})
	defer s.Shutdown(context.Background())
	payloads := make([][]byte, 2)
	for i := range payloads {
		tr := sampleTrace(b, uint64(42+i), 2000, 12000, 40)
		p, err := json.Marshal(DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = p
	}
	handler := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(payloads[i%2]))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status = %d, body %s", rr.Code, rr.Body.Bytes())
		}
	}
}
