// Command perfbench is the repository's end-to-end benchmark of ridserve.
//
// It generates a workload's inputs from a seed, starts the ridserve binary
// named by -server on loopback with default flags (only -addr set), and
// drives it closed-loop from two concurrent clients, checking every answer
// against the in-process detector. With -trace 0 it prints the end-to-end
// metrics; with -trace 1 it runs a shorter load phase and then replays the
// same inputs serially through each layer's public functions in this
// process, printing the per-layer ladder and writing the spans to -spans.
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The line before it is a JSON report with provenance, per-phase failure
// accounting and the /metrics cross-check. See README.md.
//
// Usage (after building ridserve and this command; run.sh does both):
//
//	perfbench -server ridserve -workload wire-detect -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// shape is how long a run measures and how it sets up: setup_s is the
// median of setupReps server start-ups, and a warmup precedes the
// measured phase.
type shape struct {
	measure   time.Duration
	warmup    time.Duration
	setupReps int
}

var workloadNames = []string{"wire-detect", "batch-kernel", "session-stream"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the diagnostic line printed before the result.
type report struct {
	Workload   string                 `json:"workload"`
	Trace      bool                   `json:"trace"`
	Provenance provenance             `json:"provenance"`
	InputGenS  float64                `json:"input_generation_s"`
	SetupS     []float64              `json:"setup_s_samples"`
	Phases     map[string]phaseCounts `json:"phases"`
	ErrorRate  float64                `json:"error_rate"`
	// Samples is the number of latency samples behind each percentile.
	Samples map[string]int `json:"samples"`
	// QualityInstances is how many instances initiator_f1 averages.
	QualityInstances int      `json:"quality_instances"`
	OracleF1         float64  `json:"oracle_f1"`
	CrossCheck       []string `json:"metrics_cross_check_disagreements"`
	// IngestP50MS and IngestP90MS are session-stream's POST …/events
	// latencies.
	IngestP50MS      float64 `json:"ingest_p50_ms,omitempty"`
	IngestP90MS      float64 `json:"ingest_p90_ms,omitempty"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	ClientGOMAXPROCS int     `json:"client_gomaxprocs"`
	// ClientCPUShare is the benchmark process's CPU time over the measured
	// phase divided by its wall time: the share of one CPU the load
	// generator took from the host.
	ClientCPUShare float64 `json:"client_cpu_share"`
	// Windows is how many windows the throughput and latency metrics are
	// medians over; WholeRun holds the same metrics over the whole
	// measured phase.
	Windows  int                `json:"windows"`
	WholeRun map[string]float64 `json:"whole_run,omitempty"`
	Spans    string             `json:"spans_file,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload: wire-detect, batch-kernel or session-stream")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	serverBin := flag.String("server", "", "path of the ridserve binary")
	spans := flag.String("spans", "", "file the traced run writes its spans to (default: none)")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive, got %d\n", *seconds)
		os.Exit(2)
	}
	sh := shape{measure: time.Duration(*seconds) * time.Second, warmup: time.Second, setupReps: 7}
	if err := run(os.Stdout, *workload, *seed, sh, *traced == 1, *serverBin, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name string, seed uint64, sh shape, traced bool, serverBin, spansPath string) error {
	if serverBin == "" {
		return errors.New("-server is required")
	}
	genStart := time.Now()
	in, err := generate(name, seed)
	if err != nil {
		return err
	}
	rep := &report{
		Workload:   name,
		Trace:      traced,
		Provenance: collectProvenance(seed),
		InputGenS:  time.Since(genStart).Seconds(),
		Phases:     map[string]phaseCounts{},
		Samples:    map[string]int{},
	}
	var res *result
	if traced {
		res, err = runTraced(in, serverBin, sh, spansPath, rep)
	} else {
		res, err = runLoad(in, serverBin, sh, rep)
	}
	if err != nil {
		return err
	}
	repLine, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", repLine, resLine)
	return err
}

// inputs is one workload's generated inputs.
type inputs struct {
	name string
	w    workload
	wire *wireInputs
	bat  *batchInputs
	sess *sessionInputs
}

func generate(name string, seed uint64) (*inputs, error) {
	in := &inputs{name: name}
	switch name {
	case "wire-detect":
		w, err := genWire(seed)
		if err != nil {
			return nil, err
		}
		in.wire, in.w = w, &wireWorkload{in: w}
	case "batch-kernel", "session-stream":
		net, err := genComposite()
		if err != nil {
			return nil, err
		}
		if name == "batch-kernel" {
			b, err := genBatch(seed, net)
			if err != nil {
				return nil, err
			}
			in.bat, in.w = b, &batchWorkload{in: b}
		} else {
			s, err := genSessions(seed, net)
			if err != nil {
				return nil, err
			}
			in.sess, in.w = s, &sessionWorkload{in: s}
		}
	default:
		return nil, fmt.Errorf("unknown -workload %q (want one of %v)", name, workloadNames)
	}
	return in, nil
}

// setUp launches ridserve, waits for /healthz and sends the priming
// requests; it returns the running server and the set-up time.
//
// A server that exits before answering is retried on a fresh port, twice:
// another process can bind the probed port before ridserve does.
func setUp(in *inputs, serverBin string, t *tally) (*proc, *client, time.Duration, error) {
	var (
		start time.Time
		p     *proc
		c     *client
		err   error
	)
	for attempt := 0; attempt < 3; attempt++ {
		start = time.Now()
		if p, err = launch(serverBin); err != nil {
			return nil, nil, 0, err
		}
		c = newClient(p.base)
		if err = p.waitHealthy(c.http); err == nil {
			break
		}
		p.stop()
		if !errors.Is(err, errExited) {
			break
		}
	}
	if err != nil {
		return nil, nil, 0, err
	}
	for _, pr := range in.w.primes() {
		prime(c, pr, t)
	}
	return p, c, time.Since(start), nil
}

// loadPhase is what one warmup-plus-measured run against a started server
// yields.
type loadPhase struct {
	warm, measured *tally
	start          time.Time
	wall           time.Duration
	cpu            time.Duration // ridserve's CPU over the measured phase
	clientCPU      time.Duration // this process's CPU over the measured phase
	before, after  *server.Snapshot
	diffs          []string
}

// drive runs the warmup and the measured phase on clientProcs Ps, and
// cross-checks the server's /metrics over both.
func drive(in *inputs, p *proc, c *client, sh shape) (*loadPhase, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientProcs))
	lp := &loadPhase{}
	var err error
	if lp.before, err = c.metrics(); err != nil {
		return nil, err
	}
	var next atomic.Int64
	lp.warm, _ = runLoop(in.w, c, &next, time.Now().Add(sh.warmup))
	cpu0, err := p.cpuTicks()
	if err != nil {
		return nil, err
	}
	own0 := ownCPU()
	lp.start = time.Now()
	var end time.Time
	lp.measured, end = runLoop(in.w, c, &next, lp.start.Add(sh.measure))
	lp.wall = end.Sub(lp.start)
	lp.clientCPU = ownCPU() - own0
	cpu1, err := p.cpuTicks()
	if err != nil {
		return nil, err
	}
	lp.cpu = time.Duration(cpu1-cpu0) * clockTick
	seen := newTally()
	seen.merge(lp.warm)
	seen.merge(lp.measured)
	// The server counts a request after writing its answer, so the last
	// answers can arrive before their counters move: re-read briefly until
	// the counts settle.
	for try := 0; ; try++ {
		if lp.after, err = c.metrics(); err != nil {
			return nil, err
		}
		lp.diffs = crossCheck(seen, lp.before, lp.after)
		if len(lp.diffs) == 0 || try == 20 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	return lp, nil
}

// ownCPU is this process's user+system CPU time so far.
func ownCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setUps times n complete server start-ups, stopping each server.
func setUps(in *inputs, serverBin string, n int, t *tally) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		p, _, d, err := setUp(in, serverBin, t)
		if err != nil {
			return nil, err
		}
		p.stop()
		out = append(out, d.Seconds())
	}
	return out, nil
}

// runLoad measures the end-to-end metrics. The set-up samples are split
// around the measured phase, so setup_s sees the host at both ends of the
// run; the last start-up before the phase is the server it measures.
func runLoad(in *inputs, serverBin string, sh shape, rep *report) (*result, error) {
	setupTally := newTally()
	before := (sh.setupReps - 1) / 2
	setups, err := setUps(in, serverBin, before, setupTally)
	if err != nil {
		return nil, err
	}
	p, c, d, err := setUp(in, serverBin, setupTally)
	if err != nil {
		return nil, err
	}
	setups = append(setups, d.Seconds())
	lp, err := drive(in, p, c, sh)
	var rss float64
	if err == nil {
		rss, err = p.peakRSS()
	}
	p.stop()
	if err != nil {
		return nil, err
	}
	after, err := setUps(in, serverBin, sh.setupReps-1-before, setupTally)
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)
	m := lp.measured
	counts := m.counts()
	detections := 0
	var lat []float64
	for i := range m.outcomes {
		o := &m.outcomes[i]
		detections += o.detections
		if o.ok() && o.detections > 0 {
			lat = append(lat, ms(o.latency))
		}
	}
	quality := newTally()
	quality.merge(lp.warm)
	quality.merge(m)
	f1 := mean(quality.f1)

	rep.SetupS = setups
	rep.Phases["setup"] = setupTally.counts()
	rep.Phases["warmup"] = lp.warm.counts()
	rep.Phases["measured"] = counts
	rep.ErrorRate = float64(counts.Failed) / float64(max(counts.Sent, 1))
	rep.Samples["detect"] = len(lat)
	ingestLat := ingestLatencies(m)
	rep.Samples["ingest"] = len(ingestLat)
	rep.IngestP50MS, rep.IngestP90MS = quantile(ingestLat, 0.5), quantile(ingestLat, 0.9)
	rep.QualityInstances = len(quality.f1)
	rep.OracleF1 = oracleF1(in, quality.f1)
	rep.CrossCheck = lp.diffs
	rep.ServerGOMAXPROCS = lp.after.Build.GOMAXPROCS
	rep.ClientGOMAXPROCS = clientProcs

	wall := lp.wall.Seconds()
	rep.WholeRun = map[string]float64{
		"requests_per_s":   float64(counts.Succeeded) / wall,
		"detections_per_s": float64(detections) / wall,
		"detect_p50_ms":    quantile(lat, 0.5),
		"detect_p90_ms":    quantile(lat, 0.9),
	}
	win := windows(m.outcomes, lp.start, int(sh.measure/time.Second))
	rep.Windows = len(win.reqs)
	rep.ClientCPUShare = lp.clientCPU.Seconds() / wall
	res := &result{Metrics: map[string]metric{
		"setup_s":              {median(setups), "s"},
		"requests_per_s":       {median(win.reqs), "1/s"},
		"detections_per_s":     {median(win.dets), "1/s"},
		"detect_p50_ms":        {median(win.p50), "ms"},
		"detect_p90_ms":        {median(win.p90), "ms"},
		"cpu_ms_per_detection": {ms(lp.cpu) / float64(max(detections, 1)), "ms"},
		"peak_rss_mb":          {rss, "MiB"},
		"success_ratio":        {float64(counts.Succeeded) / float64(max(counts.Sent, 1)), "ratio"},
		"initiator_f1":         {f1, "ratio"},
	}}
	finish(res, rep, setupTally, lp.warm, m)
	return res, nil
}

// finish fills the result's correctness fields from every phase's tallies
// and the cross-check.
func finish(res *result, rep *report, phases ...*tally) {
	for _, t := range phases {
		pc := t.counts()
		res.Attempted += pc.Sent
		res.Failed += pc.Failed
	}
	res.Correct = res.Failed == 0 && len(rep.CrossCheck) == 0 && res.Attempted > 0
}

// windowStats holds one value per window of the measured phase.
type windowStats struct{ reqs, dets, p50, p90 []float64 }

// windows splits the measured phase's outcomes, in completion order, into
// n windows of equal request counts (the last takes the remainder) and
// returns each window's successful requests and detections per second and
// its detection latency p50 and p90. The throughput and latency metrics
// are medians over the windows, so a few seconds in which the shared host
// stalls the run move them little.
func windows(outs []outcome, start time.Time, n int) windowStats {
	sorted := append([]outcome(nil), outs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].done.Before(sorted[b].done) })
	n = min(max(n, 1), len(sorted))
	var ws windowStats
	prev := start
	for j := 0; j < n; j++ {
		lo, hi := j*len(sorted)/n, (j+1)*len(sorted)/n
		chunk := sorted[lo:hi]
		end := chunk[len(chunk)-1].done
		secs := end.Sub(prev).Seconds()
		prev = end
		if secs <= 0 {
			continue
		}
		reqs, dets := 0, 0
		var lat []float64
		for i := range chunk {
			o := &chunk[i]
			if !o.ok() {
				continue
			}
			reqs++
			dets += o.detections
			if o.detections > 0 {
				lat = append(lat, ms(o.latency))
			}
		}
		ws.reqs = append(ws.reqs, float64(reqs)/secs)
		ws.dets = append(ws.dets, float64(dets)/secs)
		if len(lat) > 0 {
			ws.p50 = append(ws.p50, quantile(lat, 0.5))
			ws.p90 = append(ws.p90, quantile(lat, 0.9))
		}
	}
	return ws
}

func ingestLatencies(t *tally) []float64 {
	var lat []float64
	for i := range t.outcomes {
		if o := &t.outcomes[i]; o.route == routeSessionEvents && o.ok() {
			lat = append(lat, ms(o.latency))
		}
	}
	return lat
}

// oracleF1 is the in-process detector's mean F1 over the same quality
// instances, which initiator_f1 must equal when every answer matched.
func oracleF1(in *inputs, scored map[int]float64) float64 {
	f1 := map[int]float64{}
	for id := range scored {
		var a *answer
		switch {
		case in.wire != nil:
			it, _ := in.wire.schedule(int64(id))
			a = it.ans
		case in.bat != nil:
			a = in.bat.items[id].ans
		default:
			checks := in.sess.sessions[id].checks
			a = checks[len(checks)-1]
		}
		f1[id] = a.f1(a.want)
	}
	return mean(f1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean averages m's values in key order, so equal maps give bit-equal
// means.
func mean(m map[int]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k]
	}
	return sum / float64(len(m))
}

// quantile is the linearly interpolated q-quantile of values (0 when
// empty).
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }
