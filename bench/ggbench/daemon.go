package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
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

	"ggcg"
	"ggcg/internal/progen"
)

const (
	// hotUnits is the size of the daemon-mix hot set; after the warm-up
	// pass every request for one of them is a cache hit.
	hotUnits = 20

	// daemonStarts is how many daemons set-up starts; setup_s is their
	// median and the last one serves the workload.
	daemonStarts = 5

	// missesPerSecond sizes the pre-generated pool of fresh units, half as
	// much again as the miss rate (about 950/s) two connections sustain on
	// two processors today.
	// Requests beyond the pool generate their fresh unit on demand, so a
	// faster compiler is measured rather than running out of inputs.
	missesPerSecond = 1500
)

// mix is the daemon-mix request sequence. Request i goes to target i%2;
// of every four requests the first two compile hot unit (i/4)%20 for both
// targets and the other two compile fresh units, which miss. The even
// split and the alternating targets model a parallel build calling the
// daemon; they are not taken from measured ggcd use.
type mix struct {
	hot, warm []string
	miss      []string // fresh units 0 to len-1, generated ahead of time
	base      int64    // fresh unit j is progen.Generate(base + j)
}

func newMix(seed int64, misses int) *mix {
	r := rand.New(rand.NewSource(seed))
	gen := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = progen.Generate(r.Int63()).Render()
		}
		return out
	}
	m := &mix{hot: gen(hotUnits), warm: gen(2 * hotUnits), base: r.Int63()}
	m.miss = make([]string, misses)
	for j := range m.miss {
		m.miss[j] = m.generate(j)
	}
	return m
}

func (m *mix) generate(j int) string { return progen.Generate(m.base + int64(j)).Render() }

// fresh returns fresh unit j, from the pool or, past its end, generated.
func (m *mix) fresh(j int) string {
	if j < len(m.miss) {
		return m.miss[j]
	}
	return m.generate(j)
}

var mixTargets = [2]string{"vax", "risc"}

// request returns the source and target of request i.
func (m *mix) request(i int) (src, target string) {
	target = mixTargets[i%2]
	if c, k := i/4, i%4; k >= 2 {
		return m.fresh(2*c + k - 2), target
	}
	return m.hot[(i/4)%len(m.hot)], target
}

// daemonJobs is the pass the traced run profiles: the hot set and as many
// fresh units, each for both targets.
func daemonJobs(seed int64) []job {
	m := newMix(seed, hotUnits)
	var jobs []job
	for i, src := range append(m.hot, m.miss...) {
		for _, t := range mixTargets {
			jobs = append(jobs, job{name: fmt.Sprintf("mix/%d", i), src: src, target: t})
		}
	}
	return jobs
}

// sample is the client's record of one daemon-mix request.
type sample struct {
	ms    float64 // client latency
	at    float64 // completion time, seconds into the timed phase
	hit   bool    // X-GGCD-Cache: hit
	bytes int     // response size
	sum   [sha256.Size]byte
	err   error
}

// timeDaemon is the daemon-mix loop: a fresh ggcd child serving a closed
// loop of procs callers, each on its own keep-alive connection, the way a
// parallel build such as make -j2 would use it.
func timeDaemon(ctx context.Context, o options, w workload) (*result, error) {
	res := newResult()
	m := newMix(o.seed, missesPerSecond*o.seconds)
	var setup []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			d.stop()
		}
		var took float64
		var err error
		if d, took, err = startDaemon(ctx, o.ggcd, w.targets); err != nil {
			return nil, err
		}
		setup = append(setup, took)
	}
	defer d.stop()

	// Warm-up: the hot set's first use, plus fresh units that never
	// recur, so pools and the heap are warm before timing.
	for _, src := range append(m.hot, m.warm...) {
		for _, t := range mixTargets {
			if _, _, err := d.compile(ctx, src, t); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	// Each caller appends its samples to its own slice, with the request
	// index; they are put in request order afterwards.
	type indexed struct {
		i int
		s sample
	}
	var perCaller [procs][]indexed
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for c := range perCaller {
		wg.Add(1)
		go func(mine *[]indexed) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				src, target := m.request(i)
				t0 := time.Now()
				body, hdr, err := d.compile(ctx, src, target)
				s := sample{ms: msSince(t0), at: time.Since(start).Seconds(), err: err}
				if err == nil {
					s.sum, s.bytes = sha256.Sum256(body), len(body)
					s.hit = hdr.Get("X-GGCD-Cache") == "hit"
				}
				*mine = append(*mine, indexed{i, s})
			}
		}(&perCaller[c])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := int(next.Load())
	samples := make([]sample, n)
	for _, mine := range perCaller {
		for _, e := range mine {
			samples[e.i] = e.s
		}
	}
	rss, err := peakRSS(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	d.stop()

	// Every response must equal an in-process compile of the same source
	// and configuration, byte for byte.
	want := referenceSums(m, n)
	lat := make([]float64, n)
	perWindow := make([]float64, o.seconds)
	hits, codeBytes := 0, 0
	for i := 0; i < n; i++ {
		s := samples[i]
		res.Attempted++
		lat[i] = s.ms
		codeBytes += s.bytes
		switch {
		case s.err != nil:
			lat[i] = math.Inf(1)
			res.fail("request %d: %v", i, s.err)
		case s.sum != want[i]:
			lat[i] = math.Inf(1)
			res.fail("request %d: response differs from the in-process compile", i)
		}
		if s.hit {
			hits++
		}
		if k := int(s.at); k < len(perWindow) {
			perWindow[k]++
		}
	}
	res.endToEnd(median(perWindow), lat, setup, rss, float64(codeBytes)/float64(n))
	res.note("an op is one request; %d requests over %d connections, %d cache hits; ops_per_s is the median of %d one-second windows",
		n, procs, hits, len(perWindow))
	if fresh := n - hits; fresh > len(m.miss) {
		res.note("%d fresh units past the pre-generated %d were generated during timing; raise missesPerSecond", fresh-len(m.miss), len(m.miss))
	}
	return res, nil
}

// referenceSums compiles the first n requests' sources in-process, on
// procs workers, and returns the SHA-256 of each expected response.
func referenceSums(m *mix, n int) [][sha256.Size]byte {
	type key struct{ src, target string }
	index := make(map[key]int)
	var keys []key
	slot := make([]int, n)
	for i := 0; i < n; i++ {
		src, target := m.request(i)
		k := key{src, target}
		j, ok := index[k]
		if !ok {
			j = len(keys)
			index[k] = j
			keys = append(keys, k)
		}
		slot[i] = j
	}
	sums := make([][sha256.Size]byte, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < len(keys); j = int(next.Add(1)) - 1 {
				// A compile error leaves the zero sum, which no response matches.
				if out, err := ggcg.Compile(keys[j].src, ggcg.Config{Target: keys[j].target, Peephole: true}); err == nil {
					sums[j] = sha256.Sum256([]byte(out.Asm))
				}
			}
		}()
	}
	wg.Wait()
	out := make([][sha256.Size]byte, n)
	for i, j := range slot {
		out[i] = sums[j]
	}
	return out
}

// daemon is a ggcd child process and a client for it.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	done   chan struct{} // closed once the process has exited
	log    bytes.Buffer  // ggcd's standard error; read only after done
}

// startDaemon execs ggcd on a free loopback port and returns once
// /healthz answers and one request per target has been served, with the
// time that took in seconds. ggcd logs its -addr flag rather than the
// address it bound, so the port is picked here.
func startDaemon(ctx context.Context, bin string, targets []string) (*daemon, float64, error) {
	if bin == "" {
		return nil, 0, errors.New("no ggcd binary given (-ggcd)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{
		url:  "http://" + addr,
		done: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true,
		}},
	}
	d.cmd = exec.Command(bin, "-addr", addr)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d.cmd.Stderr = &d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ggcd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	if err := d.awaitReady(ctx, targets); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("ggcd start-up: %w (log: %s)", err, strings.TrimSpace(d.log.String()))
	}
	return d, time.Since(start).Seconds(), nil
}

func (d *daemon) awaitReady(ctx context.Context, targets []string) error {
	limit := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			return errors.New("ggcd exited")
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(limit) {
			return errors.New("/healthz did not answer within 60s")
		}
		if resp, err := d.client.Get(d.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	for _, t := range targets {
		if _, _, err := d.compile(ctx, "int main() { return 0; }", t); err != nil {
			return err
		}
	}
	return nil
}

// compile posts one compile request and returns the response body and
// headers; any status but 200 is an error.
func (d *daemon) compile(ctx context.Context, src, target string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/compile?peephole=1&target="+target, strings.NewReader(src))
	if err != nil {
		return nil, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header, nil
}

// stop asks ggcd to drain and exit, kills it if it has not within ten
// seconds, and returns once the process has ended. Calling it again is
// harmless.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}
