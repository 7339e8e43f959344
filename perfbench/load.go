package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// clients is the closed-loop concurrency: each client sends its next
// request only after the previous answer arrived. Fixed, not taken from
// the host, so runs on different machines load the server alike.
const clients = 2

// clientProcs is the benchmark process's GOMAXPROCS while it drives load.
// The clients' work is small, and a second P lets them compete with
// ridserve for the host's CPUs: on a 2-vCPU host that cost ridserve about
// a fifth of its session-stream throughput and tied it to the scheduler.
const clientProcs = 1

// proc is one running ridserve.
type proc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error
}

// freeAddr picks a loopback port the kernel reports free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts ridserve with default flags apart from -addr. Its log goes
// to the null device, and it is sent SIGTERM if the benchmark dies first.
func launch(bin string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ridserve: %w", err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks ridserve to drain and waits for it to exit, killing it if it
// has not exited after ten seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// errExited reports a ridserve that exited before answering /healthz.
var errExited = errors.New("ridserve exited during start-up")

// waitHealthy polls /healthz until it answers 200.
func (p *proc) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%w: %v", errExited, p.err)
		default:
		}
		resp, err := c.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("ridserve did not become healthy within 60s")
}

// cpuTicks returns the process's user+system CPU time from
// /proc/<pid>/stat, in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// peakRSS returns VmHWM from /proc/<pid>/status in MiB.
func (p *proc) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client sends requests to one ridserve.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2, DisableCompression: true},
		},
		base: base,
	}
}

// do sends one request and decodes a 2xx JSON answer into out. A non-2xx
// status is returned without error; the body is then the server's message.
func (c *client) do(method, path string, body io.Reader, size int, out any) (int, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.ContentLength = int64(size)
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return resp.StatusCode, elapsed, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, elapsed, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, elapsed, fmt.Errorf("decode answer: %w", err)
		}
	}
	return resp.StatusCode, elapsed, nil
}

func (c *client) metrics() (*server.Snapshot, error) {
	var snap server.Snapshot
	if _, _, err := c.do(http.MethodGet, "/metrics", nil, 0, &snap); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &snap, nil
}

// Server route names, as /metrics counts them.
const (
	routeDetect        = "detect"
	routeBatch         = "detect_batch"
	routeSessionCreate = "session_create"
	routeSessionEvents = "session_events"
	routeSessionDetect = "session_detect"
	routeSessionDelete = "session_delete"
)

// outcome is one request's result as the client saw it.
type outcome struct {
	route   string
	status  int // 0 on transport error
	latency time.Duration
	// detections counts the successful detections the request carried (a
	// batch item counts 1); itemErrors counts batch items the server failed.
	detections, itemErrors int
	cache                  string    // graph-cache outcome the answer reported, if any
	cacheWant              string    // outcome the workload is built to cause, if any
	failure                string    // empty on success
	done                   time.Time // when the outcome was recorded
}

func (o *outcome) ok() bool { return o.failure == "" }

// tally collects one phase's outcomes plus answer quality, per client and
// then merged.
type tally struct {
	outcomes []outcome
	// f1 holds the F1 of the first answer to each scored instance.
	f1 map[int]float64
}

func newTally() *tally { return &tally{f1: map[int]float64{}} }

// add records o, stamped with the time it completed.
func (t *tally) add(o outcome) {
	o.done = time.Now()
	t.outcomes = append(t.outcomes, o)
}

func (t *tally) merge(o *tally) {
	t.outcomes = append(t.outcomes, o.outcomes...)
	for id, f1 := range o.f1 {
		t.quality(id, f1)
	}
}

// quality records instance id's F1 unless it is already scored.
func (t *tally) quality(id int, f1 float64) {
	if _, seen := t.f1[id]; !seen {
		t.f1[id] = f1
	}
}

// phaseCounts is the failure accounting of one phase.
type phaseCounts struct {
	Sent       int `json:"sent"`
	Succeeded  int `json:"succeeded"`
	Failed     int `json:"failed"`
	Rejected   int `json:"rejected_429"`
	ItemErrors int `json:"batch_item_errors"`
	// CacheUnexpected counts answers whose graph-cache outcome differs
	// from the one the workload is built to cause (not a failure).
	CacheUnexpected int            `json:"cache_unexpected"`
	Reasons         map[string]int `json:"failure_reasons,omitempty"`
}

func (t *tally) counts() phaseCounts {
	pc := phaseCounts{Reasons: map[string]int{}}
	for i := range t.outcomes {
		o := &t.outcomes[i]
		pc.Sent++
		pc.ItemErrors += o.itemErrors
		if o.cacheWant != "" && o.cache != "" && o.cache != o.cacheWant {
			pc.CacheUnexpected++
		}
		if o.status == http.StatusTooManyRequests {
			pc.Rejected++
		}
		if o.ok() {
			pc.Succeeded++
			continue
		}
		pc.Failed++
		reason := o.route + ": " + o.failure
		if len(reason) > 160 {
			reason = reason[:160]
		}
		pc.Reasons[reason]++
	}
	return pc
}

// runLoop drives the workload's units closed-loop from clients goroutines
// until the deadline: a client starts a unit only while time remains, and
// finishes the unit it started. Units are numbered from next, shared by
// the clients, so the schedule is the same whatever their interleaving.
// It returns the merged tally and the time the last unit ended.
func runLoop(w workload, c *client, next *atomic.Int64, deadline time.Time) (*tally, time.Time) {
	tallies := make([]*tally, clients)
	ends := make([]time.Time, clients)
	var wg sync.WaitGroup
	for i := range tallies {
		tallies[i] = newTally()
		wg.Add(1)
		go func(t *tally, end *time.Time) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.unit(c, next.Add(1)-1, t)
			}
			*end = time.Now()
		}(tallies[i], &ends[i])
	}
	wg.Wait()
	total := newTally()
	last := ends[0]
	for i, t := range tallies {
		total.merge(t)
		if ends[i].After(last) {
			last = ends[i]
		}
	}
	return total, last
}

// crossCheck compares what the client saw between two /metrics snapshots
// with the server's own counters: requests per route and status, graph
// cache hits and misses, and queue rejections. It returns one line per
// disagreement.
func crossCheck(seen *tally, before, after *server.Snapshot) []string {
	want := map[string]map[string]int64{}
	var hits, misses, rejected int64
	for i := range seen.outcomes {
		o := &seen.outcomes[i]
		if o.status == 0 {
			continue // never reached a handler
		}
		if want[o.route] == nil {
			want[o.route] = map[string]int64{}
		}
		want[o.route][strconv.Itoa(o.status)]++
		switch o.cache {
		case "hit":
			hits++
		case "miss", "warm":
			misses++
		}
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
	}
	var diffs []string
	routes := map[string]bool{}
	for r := range want {
		routes[r] = true
	}
	for r := range after.Requests {
		if r != "metrics" {
			routes[r] = true
		}
	}
	for r := range routes {
		statuses := map[string]bool{}
		for s := range want[r] {
			statuses[s] = true
		}
		for s := range after.Requests[r] {
			statuses[s] = true
		}
		for s := range statuses {
			got := after.Requests[r][s] - before.Requests[r][s]
			if got != want[r][s] {
				diffs = append(diffs, fmt.Sprintf("route %s status %s: client %d, server %d", r, s, want[r][s], got))
			}
		}
	}
	if got := after.Cache.Hits - before.Cache.Hits; got != hits {
		diffs = append(diffs, fmt.Sprintf("cache hits: client %d, server %d", hits, got))
	}
	if got := after.Cache.Misses - before.Cache.Misses; got != misses {
		diffs = append(diffs, fmt.Sprintf("cache misses: client %d, server %d", misses, got))
	}
	if got := after.Queue.Rejected - before.Queue.Rejected; got != rejected {
		diffs = append(diffs, fmt.Sprintf("rejected: client %d, server %d", rejected, got))
	}
	return diffs
}
