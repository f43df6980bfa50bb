package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/tensor"
)

// fleet is the set of samserve processes one workload runs against.
type fleet struct {
	shards []*server
	router *server
	target string // where clients send: the router when there is one
}

func (f *fleet) servers() []*server {
	if f.router != nil {
		return append([]*server{f.router}, f.shards...)
	}
	return f.shards
}

func (f *fleet) stop() {
	for _, s := range f.servers() {
		s.stop()
	}
}

// newClient is one closed-loop caller: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// do sends one request and returns the status and the whole body.
func do(c *http.Client, method, url string, body []byte, into *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	into.Reset()
	if _, err := into.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// conn is one closed-loop caller's keep-alive connection. It writes a
// prebuilt HTTP/1.1 request and parses the reply with net/http's own reader
// instead of going through http.Transport, whose two goroutine hand-offs per
// request would make the generator a third of the load at 10 k req/s on two
// cores (proc.gen_cpu_share reports what is left).
type conn struct {
	c     net.Conn
	br    *bufio.Reader
	host  string
	heads map[*request][]byte
}

func dial(target string) (*conn, error) {
	host := strings.TrimPrefix(target, "http://")
	c, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: host, heads: map[*request][]byte{}}, nil
}

// post sends r and reads the whole reply into into.
func (c *conn) post(r *request, into *bytes.Buffer) (int, error) {
	head := c.heads[r]
	if head == nil {
		head = fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			evaluatePath, c.host, len(r.body))
		c.heads[r] = head
	}
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	bufs := net.Buffers{head, r.body}
	if _, err := bufs.WriteTo(c.c); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	into.Reset()
	if _, err := into.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// setUp starts a workload's fleet on the fixed ports (shard, shard,
// router) and brings it to the state the measured window assumes: every
// process ready, stored operands uploaded and, for warm workloads, every
// distinct program evaluated once and checked against gold. The returned
// duration runs from the first exec to that point.
func setUp(bin, logDir string, basePort int, w *workload) (*fleet, time.Duration, error) {
	addr := func(i int) string { return "127.0.0.1:" + strconv.Itoa(basePort+i) }
	c := newClient()
	defer c.CloseIdleConnections()
	f := &fleet{}
	fail := func(err error) (*fleet, time.Duration, error) {
		f.stop()
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	shards := 1
	if w.routed {
		shards = 2
	}
	t0 := time.Now()
	for i := 0; i < shards; i++ {
		s, err := startServer(bin, logDir, addr(i))
		if err != nil {
			return fail(err)
		}
		f.shards = append(f.shards, s)
	}
	for _, s := range f.shards {
		if err := s.waitReady(c); err != nil {
			return fail(err)
		}
	}
	f.target = f.shards[0].url
	if w.routed {
		urls := make([]string, len(f.shards))
		for i, s := range f.shards {
			urls[i] = s.url
		}
		var err error
		if f.router, err = startServer(bin, logDir, addr(2), "-route", strings.Join(urls, ",")); err != nil {
			return fail(err)
		}
		if err := f.router.waitReady(c); err != nil {
			return fail(err)
		}
		f.target = f.router.url
	}
	if err := prime(over(c, f.target), w); err != nil {
		return fail(err)
	}
	return f, time.Since(t0), nil
}

// sender delivers one request to a server — over HTTP or straight into an
// in-process handler — and returns the status and body.
type sender func(method, path string, body []byte) (int, []byte, error)

// over sends through c to the server at target.
func over(c *http.Client, target string) sender {
	var buf bytes.Buffer
	return func(method, path string, body []byte) (int, []byte, error) {
		status, err := do(c, method, target+path, body, &buf)
		return status, buf.Bytes(), err
	}
}

// prime uploads a workload's stored operands through send and, for warm
// workloads, evaluates and fully verifies every distinct request there.
func prime(send sender, w *workload) error {
	names := make([]string, 0, len(w.stored))
	for name := range w.stored {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body, err := json.Marshal(wireTensor(w.stored[name]))
		if err != nil {
			return err
		}
		status, out, err := send(http.MethodPut, "/v1/tensors/"+name, body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("PUT %s: status %d: %s", name, status, out)
		}
	}
	if !w.warm {
		return nil
	}
	for _, r := range w.requests {
		status, out, err := send(http.MethodPost, evaluatePath, r.body)
		if err != nil {
			return err
		}
		if err := r.verify(status, out, true); err != nil {
			return err
		}
	}
	return nil
}

var (
	cyclesPrefix = []byte(`{"cycles":`)
	outputKey    = []byte(`,"output":`)
	afterOutput  = []byte(`,"fingerprint":"`)
)

// splitResponse cuts the cycle count and the raw "output" member out of a
// reply without decoding it. The rest of the envelope (timings, cache tier)
// legitimately differs between replies to the same request.
func splitResponse(body []byte) (cycles int64, output []byte, err error) {
	// A tensor on the wire holds numbers only, so the first fingerprint key
	// after "output" is the envelope's own (ref stamps carry more, later).
	i := bytes.Index(body, outputKey)
	j := -1
	if i >= 0 {
		j = bytes.Index(body[i:], afterOutput)
	}
	if !bytes.HasPrefix(body, cyclesPrefix) || j < 0 {
		return 0, nil, fmt.Errorf("reply is not an evaluate response: %.120s", body)
	}
	j += i
	if cycles, err = strconv.ParseInt(string(body[len(cyclesPrefix):i]), 10, 64); err != nil {
		return 0, nil, fmt.Errorf("reply cycles: %w", err)
	}
	return cycles, body[i+len(outputKey) : j], nil
}

// fullCheckEvery is how often a request's reply is decoded and compared
// with gold again after its first; the replies in between are compared with
// the first one byte for byte.
const fullCheckEvery = 64

// verify checks one reply. The first reply to a request (and every
// fullCheckEvery-th, and any with full set) is decoded and compared with the
// dense gold result exactly; it must also have run on the engine the
// request named. Its output bytes and cycle count then stand for gold.
func (r *request) verify(status int, body []byte, full bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.kernel, status, body)
	}
	cycles, output, err := splitResponse(body)
	if err != nil {
		return fmt.Errorf("%s: %w", r.kernel, err)
	}
	want := r.want.Load()
	if want != nil && (cycles != want.cycles || !bytes.Equal(output, want.output)) {
		return fmt.Errorf("%s: reply differs from the first verified reply (cycles %d vs %d, output %d vs %d bytes)",
			r.kernel, cycles, want.cycles, len(output), len(want.output))
	}
	if n := r.seen.Add(1); want != nil && !full && n%fullCheckEvery != 0 {
		return nil
	}
	resp, err := decodeResponse(body)
	if err != nil {
		return fmt.Errorf("%s: %w", r.kernel, err)
	}
	if engine := string(r.engine); engine != "" && resp.Engine != engine {
		return fmt.Errorf("%s: ran on engine %q, asked for %q", r.kernel, resp.Engine, engine)
	}
	got, err := cooOf(r.gold.Name, resp.Output)
	if err != nil {
		return fmt.Errorf("%s: %w", r.kernel, err)
	}
	r.goldMu.Lock()
	err = tensor.Equal(r.gold, got, 0)
	r.goldMu.Unlock()
	if err != nil {
		return fmt.Errorf("%s: output differs from gold: %w", r.kernel, err)
	}
	if want == nil {
		r.want.CompareAndSwap(nil, &expected{output: append([]byte(nil), output...), cycles: cycles})
	}
	return nil
}

// sample is one completed request as a client saw it.
type sample struct {
	done    time.Time
	latency time.Duration
	cycles  int64
	err     error
}

// counters is a process-level snapshot taken at a window's edges.
type counters struct {
	cpu      []time.Duration // per server, fleet order
	self     time.Duration
	stats    []shardStats // per shard
	queueSum float64      // sam_phase_duration_seconds{phase="queue_wait"}, summed over shards
	queueN   float64
	routed   []float64 // sam_router_requests_total per shard
}

// slice is one of the short equal parts a window is cut into. Every rate
// and timing is taken per slice, and a run reports the slice at the good
// end's decile (see steady): what a shared host does to a run — a neighbour
// on the same core, a stolen processor — only ever slows slices down, often
// for many seconds on end, so the fast slices are the part of a run that
// repeats from one run to the next.
type slice struct {
	length    time.Duration
	ok        int
	latencies []float64     // ms, correct replies only, ascending
	cpu       time.Duration // fleet user+system time spent inside the slice
}

// sliceLength: short enough that a 20 s window holds forty, long enough that
// a slice of the slowest workload still holds some thirty requests and most
// of the hundred ticks two processors' 10 ms CPU clocks make in that time.
const sliceLength = 500 * time.Millisecond

// window is what one measured interval produced.
type window struct {
	slices    []slice
	length    time.Duration
	attempted int
	ok        int
	failed    int
	firstErr  error
	latencies []float64 // ms, correct replies only, ascending
	cycles    int64
	before    counters
	after     counters
	peakRSS   float64 // MiB, max over the fleet at window end
}

// runLoad drives target with the workload's stream in a closed loop —
// clients draw the next request from one shared cursor, send it, wait for
// the whole reply, check it, and only then draw again — for warmUp
// (discarded) plus length (measured). A reply counts toward the window when
// it completed inside it.
func runLoad(f *fleet, target string, w *workload, clients int, warmUp, length time.Duration) (*window, error) {
	var (
		cursor  atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		perConn = make([][]sample, clients)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer guard()
			client, err := dial(target)
			if err != nil {
				perConn[c] = append(perConn[c], sample{done: time.Now(), err: err})
				return
			}
			defer client.c.Close()
			var buf bytes.Buffer
			for !stop.Load() {
				r := w.requests[int(cursor.Add(1)-1)%len(w.requests)]
				t0 := time.Now()
				status, err := client.post(r, &buf)
				s := sample{done: time.Now()}
				if err != nil {
					// The connection's state is unknown after a transport
					// error: count the failure and start a fresh one.
					client.c.Close()
					fresh, derr := dial(target)
					if derr != nil {
						s.err = err
						perConn[c] = append(perConn[c], s)
						return
					}
					client = fresh
				}
				s.latency = s.done.Sub(t0)
				if err == nil {
					err = r.verify(status, buf.Bytes(), false)
				}
				if s.err = err; err == nil {
					s.cycles = r.want.Load().cycles
				}
				perConn[c] = append(perConn[c], s)
			}
		}(c)
	}
	time.Sleep(warmUp)
	win := &window{}
	var err error
	if win.before, err = f.snapshot(); err != nil {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}
	start := time.Now()
	edges := []time.Time{start}
	cpuAt := [][]time.Duration{win.before.cpu}
	slices := max(int(length/sliceLength), 1)
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Until(start.Add(length * time.Duration(i) / time.Duration(slices))))
		cpu, err := f.cpuTimes()
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return nil, err
		}
		edges, cpuAt = append(edges, time.Now()), append(cpuAt, cpu)
	}
	end := edges[slices]
	stop.Store(true)
	win.length = end.Sub(start)
	wg.Wait()
	win.slices = make([]slice, slices)
	for i := range win.slices {
		win.slices[i].length = edges[i+1].Sub(edges[i])
		for p := range cpuAt[i] {
			win.slices[i].cpu += cpuAt[i+1][p] - cpuAt[i][p]
		}
	}
	if win.after, err = f.snapshot(); err != nil {
		return nil, err
	}
	for _, s := range f.servers() {
		rss, err := peakRSS(s.pid())
		if err != nil {
			return nil, err
		}
		win.peakRSS = max(win.peakRSS, rss)
	}
	for _, samples := range perConn {
		for _, s := range samples {
			if s.done.Before(start) || s.done.After(end) {
				continue
			}
			win.attempted++
			if s.err != nil {
				win.failed++
				if win.firstErr == nil {
					win.firstErr = s.err
				}
				continue
			}
			win.ok++
			win.cycles += s.cycles
			ms := float64(s.latency) / float64(time.Millisecond)
			win.latencies = append(win.latencies, ms)
			at := sort.Search(slices-1, func(i int) bool { return s.done.Before(edges[i+1]) })
			win.slices[at].ok++
			win.slices[at].latencies = append(win.slices[at].latencies, ms)
		}
	}
	sort.Float64s(win.latencies)
	for i := range win.slices {
		sort.Float64s(win.slices[i].latencies)
	}
	return win, nil
}

// snapshot reads every counter a window delta needs. The scrapes cost the
// servers well under a millisecond and happen outside the window.
func (f *fleet) snapshot() (counters, error) {
	var c counters
	client := newClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	get := func(url string) error {
		status, err := do(client, http.MethodGet, url, nil, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", url, status)
		}
		return err
	}
	for _, s := range f.shards {
		if err := get(s.url + "/v1/stats"); err != nil {
			return c, err
		}
		var st shardStats
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			return c, fmt.Errorf("%s/v1/stats: %w", s.url, err)
		}
		c.stats = append(c.stats, st)
		if err := get(s.url + "/metrics"); err != nil {
			return c, err
		}
		c.queueSum += promValue(buf.Bytes(), `sam_phase_duration_seconds_sum{phase="queue_wait"}`)
		c.queueN += promValue(buf.Bytes(), `sam_phase_duration_seconds_count{phase="queue_wait"}`)
	}
	if f.router != nil {
		if err := get(f.router.url + "/metrics"); err != nil {
			return c, err
		}
		for i := range f.shards {
			c.routed = append(c.routed, promValue(buf.Bytes(), fmt.Sprintf(`sam_router_requests_total{shard="s%d"}`, i)))
		}
	}
	var err error
	if c.cpu, err = f.cpuTimes(); err != nil {
		return c, err
	}
	c.self = selfCPU()
	return c, nil
}

// cpuTimes reads every server's CPU clock, in fleet order.
func (f *fleet) cpuTimes() ([]time.Duration, error) {
	var out []time.Duration
	for _, s := range f.servers() {
		cpu, err := cpuTime(s.pid())
		if err != nil {
			return nil, err
		}
		out = append(out, cpu)
	}
	return out, nil
}

// promValue finds one series in a Prometheus text exposition; a missing
// series reads 0. The router relabels shard scrapes, so only the first
// unlabelled match — the process's own series — counts.
func promValue(exposition []byte, series string) float64 {
	for _, line := range bytes.Split(exposition, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(series+" ")); ok {
			v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest)), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
