package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) *spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

var (
	serverOnce sync.Once
	serverBin  string
	serverErr  error
)

// ridserve builds the server from this tree once per test binary.
func ridserve(t *testing.T) string {
	t.Helper()
	serverOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test")
		if err != nil {
			serverErr = err
			return
		}
		serverBin = filepath.Join(dir, "ridserve")
		cmd := exec.Command("go", "build", "-o", serverBin, "./cmd/ridserve")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			serverErr = err
			serverBin = string(out)
		}
	})
	if serverErr != nil {
		t.Fatalf("build ridserve: %v\n%s", serverErr, serverBin)
	}
	return serverBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serverBin != "" && serverErr == nil {
		os.RemoveAll(filepath.Dir(serverBin))
	}
	os.Exit(code)
}

// shortShape runs a handful of requests per workload.
var shortShape = shape{measure: 400 * time.Millisecond, warmup: 100 * time.Millisecond, setupReps: 1}

// TestEveryMetricEmitted runs each workload briefly, untraced and traced,
// and checks the result line carries exactly the metrics BENCHMARK.json
// names, each with its unit, from a correct run. It covers every workload
// the benchmark implements, including any BENCHMARK.json does not list.
func TestEveryMetricEmitted(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	bin := ridserve(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			var out bytes.Buffer
			if err := run(&out, name, 7, shortShape, traced, bin, ""); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d; report: %s",
					name, traced, res.Correct, res.Attempted, res.Failed, lines[0])
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptedAnswerFails corrupts the oracle's answer for the first unit
// of each workload and checks the load generator counts that unit's
// answer as a failure.
func TestCorruptedAnswerFails(t *testing.T) {
	bin := ridserve(t)
	for _, name := range workloadNames {
		in, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		var ans *answer
		switch {
		case in.wire != nil:
			it, _ := in.wire.schedule(0)
			ans = it.ans
		case in.bat != nil:
			ans = in.bat.items[0].ans
		default:
			for _, a := range in.sess.sessions[0].checks {
				if a != nil {
					ans = a
					break
				}
			}
		}
		ans.want = append(ans.want, server.RankedInitiator{Node: -1, State: 1, Score: 1})

		setup := newTally()
		p, c, _, err := setUp(in, bin, setup)
		if err != nil {
			t.Fatal(err)
		}
		got := newTally()
		in.w.unit(c, 0, got)
		p.stop()
		if n := setup.counts().Failed; n != 0 {
			t.Fatalf("%s: %d priming failures", name, n)
		}
		counts := got.counts()
		if counts.Failed == 0 {
			t.Errorf("%s: corrupted expectation not counted as a failure: %+v", name, counts)
		}
		for reason := range counts.Reasons {
			if !strings.Contains(reason, "oracle mismatch") {
				t.Errorf("%s: unexpected failure %q", name, reason)
			}
		}
	}
}

// TestWindows checks the window split on a hand-made phase: four windows
// of two answers each, out of completion order, with one slow window that
// the median ignores.
func TestWindows(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(ms int, dets int, lat time.Duration) outcome {
		return outcome{detections: dets, latency: lat, done: start.Add(time.Duration(ms) * time.Millisecond)}
	}
	outs := []outcome{
		at(200, 1, 10*time.Millisecond), at(100, 0, time.Millisecond),
		at(400, 1, 20*time.Millisecond), at(300, 0, time.Millisecond),
		at(1400, 1, 30*time.Millisecond), at(800, 0, time.Millisecond), // slow window: 1 s
		at(1600, 1, 40*time.Millisecond), at(1500, 0, time.Millisecond),
	}
	ws := windows(outs, start, 4)
	wantReqs := []float64{10, 10, 2, 10}
	if !slices.Equal(ws.reqs, wantReqs) {
		t.Errorf("reqs per s %v, want %v", ws.reqs, wantReqs)
	}
	if got := median(ws.reqs); got != 10 {
		t.Errorf("median reqs per s %v, want 10", got)
	}
	if want := []float64{5, 5, 1, 5}; !slices.Equal(ws.dets, want) {
		t.Errorf("detections per s %v, want %v", ws.dets, want)
	}
	if want := []float64{10, 20, 30, 40}; !slices.Equal(ws.p50, want) {
		t.Errorf("window p50 %v, want %v", ws.p50, want)
	}
}
