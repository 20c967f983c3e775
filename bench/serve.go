package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"multiscalar/internal/mserve"
	"multiscalar/internal/workload"
)

// server is one running mserve instance under load. The benchmark runs
// the real daemon binary; the smoke test substitutes an in-process one.
type server interface {
	url() string
	// cpu returns the CPU time the server's process has used so far.
	cpu() (time.Duration, error)
	// stop shuts the server down, waits for it, and returns its peak
	// resident set in bytes.
	stop() (int64, error)
}

type startFunc func() (server, error)

// openShare is the share of serve's timed phase spent in the open loop.
const openShare = 0.6

// daemon is a cmd/mserve process started by the harness.
type daemon struct {
	cmd  *exec.Cmd
	done chan error
	dir  string
	base string
}

// startDaemon returns a startFunc that execs the mserve binary at bin
// with one evaluation worker on an ephemeral loopback port. The result
// cache is sized so no cell is evicted during a run.
func startDaemon(bin string) startFunc {
	return func() (server, error) {
		dir, err := os.MkdirTemp("", "bench-mserve-")
		if err != nil {
			return nil, err
		}
		d := &daemon{dir: dir, done: make(chan error, 1)}
		addrFile := filepath.Join(dir, "addr")
		log, err := os.Create(filepath.Join(dir, "daemon.log"))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		d.cmd = exec.Command(bin, "-workers", "1", "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cache-max", "1000000")
		d.cmd.Stdout, d.cmd.Stderr = log, log
		err = d.cmd.Start()
		log.Close()
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() { d.done <- d.cmd.Wait() }()
		deadline := now().Add(30 * time.Second)
		for {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
				return d, nil
			}
			select {
			case err := <-d.done:
				d.done <- err
				return nil, fmt.Errorf("mserve exited before listening (%v): %s", err, d.logTail())
			case <-time.After(2 * time.Millisecond):
			}
			if now().After(deadline) {
				d.stop()
				return nil, fmt.Errorf("mserve did not write its address within 30s")
			}
		}
	}
}

func (d *daemon) url() string { return d.base }

// cpu reads utime+stime from /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(u+s) * 10 * time.Millisecond, nil
}

func (d *daemon) stop() (int64, error) {
	defer os.RemoveAll(d.dir)
	var err error
	if d.cmd.Process.Signal(syscall.SIGTERM) == nil {
		select {
		case err = <-d.done:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			err = <-d.done
		}
	} else {
		err = <-d.done
	}
	if err != nil {
		return 0, fmt.Errorf("mserve: %v: %s", err, d.logTail())
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("mserve: no resource usage")
	}
	return ru.Maxrss << 10, nil
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// requestBody is the /eval body for a cell.
func requestBody(c mserve.Cell) []byte {
	b, err := json.Marshal(mserve.EvalRequest{
		Workload: c.Workload, Spec: c.Spec, Mode: c.Mode.String(), Steps: c.Steps, TimingSteps: c.TimingSteps,
	})
	if err != nil {
		panic(err)
	}
	return b
}

// serveReq is one generated /eval request.
type serveReq struct {
	job  job
	body []byte
}

// serveMix generates the serve traffic mix: 75% from a hot set of
// cells (result-cache hits once seen), 20% fresh cells at the hot
// truncation (engine runs over a cached trace), and 5% fresh cells at
// one of 32 seeded truncations (trace-cache misses that simulate). The
// seed orders the kinds and draws each hot cell; fresh cells walk their
// cost slots, programs and truncations in order, so the first 160
// truncated requests simulate every (program, truncation) pair once
// and every seed does the same amount of work per request kind.
type serveMix struct {
	mu           sync.Mutex
	r            *rng
	g            *specGen
	sc           scale
	hot          []serveReq
	truncs       []int
	block        []int // request kinds still to come in the current block
	fresh, trunc int   // fresh and truncated cells handed out
}

func newServeMix(seed uint64, sc scale) *serveMix {
	m := &serveMix{r: newRNG(seed, streamMix), g: newSpecGen(seed), sc: sc}
	// One truncation in each of 32 equal strata of the range.
	step := (sc.serveTruncs[1] - sc.serveTruncs[0]) / 32
	for i := 0; i < 32; i++ {
		m.truncs = append(m.truncs, sc.serveTruncs[0]+i*step+m.r.intn(step))
	}
	names := workload.Names()
	for i := 0; i < sc.serveHot; i++ {
		m.hot = append(m.hot, newServeReq(names[i%len(names)], m.g.sweepSpec(i), sc.serveSteps))
	}
	return m
}

func newServeReq(prog, spec string, steps int) serveReq {
	j := newJob(mserve.EvalRequest{Workload: prog, Spec: spec, Steps: steps}, false)
	return serveReq{job: j, body: requestBody(j.cell)}
}

// freshReq returns the n-th cell of a fresh stream: program n mod 5 and
// a PATH exit predictor or PATH-based header predictor from the
// fixed-cost slot n mod 11, made unique by a tie-break seed flag, which
// changes how voting counters break ties but not the work.
func (m *serveMix) freshReq(n, steps int) serveReq {
	names := workload.Names()
	flag := fmt.Sprintf(":seed%d", m.fresh+m.trunc)
	var spec string
	if q := n % 11; q < 7 {
		spec = m.g.realExit(3*q) + flag
	} else {
		spec = m.g.composedPath(q-7, flag)
	}
	return newServeReq(names[n%len(names)], canonical(spec), steps)
}

// next returns the next request. Kinds come in blocks of 20 in seeded
// order, exactly 15 hot, 4 fresh and 1 truncated, so every stretch of
// the schedule holds the mix's shares and no seed draws more misses.
func (m *serveMix) next() serveReq {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.block) == 0 {
		m.block = m.r.perm(20)
	}
	k := m.block[0]
	m.block = m.block[1:]
	switch {
	case k < 15:
		return m.hot[m.r.intn(len(m.hot))]
	case k < 19:
		m.fresh++
		return m.freshReq(m.fresh, m.sc.serveSteps)
	default:
		m.trunc++
		return m.freshReq(m.trunc, m.truncs[m.trunc/len(workload.Names())%len(m.truncs)])
	}
}

// answer is one /eval exchange as the client saw it.
type answer struct {
	req           serveReq
	status        int
	cache         string // X-Mserve-Cache: hit, miss or join
	body          []byte
	lat, lag, svc time.Duration // from due time, send delay, from send
	err           error
}

func post(client *http.Client, base string, req serveReq) answer {
	a := answer{req: req}
	resp, err := client.Post(base+"/eval", "application/json", bytes.NewReader(req.body))
	if err != nil {
		a.err = err
		return a
	}
	defer resp.Body.Close()
	a.status, a.cache = resp.StatusCode, resp.Header.Get("X-Mserve-Cache")
	a.body, a.err = io.ReadAll(resp.Body)
	return a
}

// openLoop sends the scheduled requests at their seeded Poisson arrival
// times over at most `conns` connections. A request that waits for a
// free connection is late, and its latency counts from when it was due.
// A request whose sender slept until it was due counts from the wake-up
// instead: Go's idle timers fire up to a millisecond late, and that
// lateness is the generator's, reported as gen lag, not the server's.
func openLoop(client *http.Client, base string, reqs []serveReq, due []time.Duration, conns int, rec []*recorder) []answer {
	out := make([]answer, len(reqs))
	var next atomic.Int64
	start := now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				at := start.Add(due[i])
				from := at
				if d := at.Sub(now()); d > 0 {
					time.Sleep(d)
					from = now()
				}
				sent := now()
				var r *recorder
				if rec != nil {
					r = rec[c]
				}
				s := r.begin("mserve.request", -1, int32(i))
				a := post(client, base, reqs[i])
				r.end(s)
				done := now()
				a.lat, a.lag, a.svc = done.Sub(from), sent.Sub(at), done.Sub(sent)
				out[i] = a
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop keeps `conns` clients busy, each sending its next request
// as soon as the previous answer arrives, until the phase has lasted
// `dur`. It returns the answers and the phase's wall time.
func closedLoop(client *http.Client, base string, mix *serveMix, dur time.Duration, conns int) ([]answer, time.Duration) {
	out := make([][]answer, conns)
	start := now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for now().Before(end) {
				out[c] = append(out[c], post(client, base, mix.next()))
			}
		}(c)
	}
	wg.Wait()
	wall := now().Sub(start)
	var all []answer
	for _, as := range out {
		all = append(all, as...)
	}
	return all, wall
}

// measureServe measures the serve workload against servers from start:
// set-up (a fresh server until one warm-up answer per program) timed at
// least minReps times (see moreSetups), then an open-loop phase at the
// fixed rate for the latency metrics and a closed-loop phase for
// throughput and CPU, then the correctness gate.
func measureServe(cfg config, minReps int, start startFunc, logf func(string, ...any)) (*report, error) {
	sc := cfg.scale
	mix := newServeMix(cfg.seed, sc)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}}
	defer client.CloseIdleConnections()

	var setups []float64
	var srv server
	for t0 := now(); srv == nil; {
		t := now()
		s, err := start()
		if err != nil {
			return nil, err
		}
		for i := range workload.Names() {
			if a := post(client, s.url(), mix.hot[i]); a.err != nil || a.status != http.StatusOK {
				s.stop()
				return nil, fmt.Errorf("warm-up request %s: status %d: %v", mix.hot[i].job.cell.Key(), a.status, a.err)
			}
		}
		setups = append(setups, now().Sub(t).Seconds())
		if !moreSetups(minReps, len(setups), now().Sub(t0)) {
			srv = s
			break
		}
		client.CloseIdleConnections()
		if _, err := s.stop(); err != nil {
			return nil, err
		}
	}

	// The open-loop schedule: seeded Poisson arrivals at the fixed rate
	// over openShare of the timed phase, and at least the requests the
	// digest covers whatever the run's length; the closed loop gets the
	// rest of the phase.
	arr := newRNG(cfg.seed, streamArrivals)
	var reqs []serveReq
	var due []time.Duration
	for t := arr.exp(1 / sc.serveRate); t < openShare*cfg.seconds || len(reqs) < sc.serveDigest; t += arr.exp(1 / sc.serveRate) {
		reqs = append(reqs, mix.next())
		due = append(due, secs(t))
	}
	var recs []*recorder
	epoch := now()
	if cfg.traced {
		for c := 0; c < cfg.workers; c++ {
			recs = append(recs, newRecorder(epoch, c))
		}
	}
	open := openLoop(client, srv.url(), reqs, due, cfg.workers, recs)
	cpu0, err0 := srv.cpu()
	closed, wall := closedLoop(client, srv.url(), mix, secs((1-openShare)*cfg.seconds), cfg.workers)
	cpu1, err1 := srv.cpu()
	client.CloseIdleConnections()
	rss, err := srv.stop()
	if err := errors.Join(err, err0, err1); err != nil {
		return nil, err
	}

	rep := &report{SetupS: median(setups), Metrics: map[string]float64{}}
	bodies := map[string][]byte{}
	check := func(as []answer) {
		for _, a := range as {
			rep.Attempted++
			key := a.req.job.cell.Key()
			quoted, _ := json.Marshal(key)
			switch {
			case a.err != nil || a.status != http.StatusOK:
				rep.Failed++
				logf("request %s: status %d: %v %s", key, a.status, a.err, a.body)
			case !bytes.HasPrefix(a.body, append([]byte(`{"key":`), quoted...)):
				rep.Failed++
				logf("request %s: answered for another cell: %s", key, a.body)
			case bodies[key] != nil && !bytes.Equal(bodies[key], a.body):
				rep.Failed++
				logf("request %s: two different answers", key)
			default:
				bodies[key] = a.body
			}
		}
	}
	check(open)
	check(closed)

	// The digest covers a fixed prefix of the schedule, so it does not
	// depend on how long the run is; the per-key check above and the
	// cross-check below hold every other answer.
	h := sha256.New()
	var lat, lags, hit, miss []float64
	joins := 0
	for i, a := range open {
		s := sha256.Sum256(a.body)
		if a.status != http.StatusOK {
			s = sha256.Sum256([]byte(fmt.Sprintf("status %d", a.status)))
		}
		if i < sc.serveDigest {
			h.Write(s[:])
		}
		lat = append(lat, float64(a.lat))
		lags = append(lags, float64(a.lag))
		switch a.cache {
		case "hit":
			hit = append(hit, float64(a.svc))
		case "miss":
			miss = append(miss, float64(a.svc))
		case "join":
			joins++
		}
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))

	tail := quantile(lat, tailPct["serve"]/100)
	for _, l := range lat {
		if l > tail {
			rep.TailN++
		}
	}
	tasks := 0
	for _, a := range closed {
		if a.cache == "miss" {
			tasks += a.req.job.tasks()
		}
	}
	rep.ReqPerS = float64(len(closed)) / wall.Seconds()
	m := rep.Metrics
	if !cfg.traced {
		m["tasks_per_s"] = float64(tasks) / wall.Seconds()
		m["cpu_ns_per_task"] = ratio(float64(cpu1-cpu0), float64(tasks))
		m["cell_p50_ms"] = ms(median(lat))
		m["cell_tail_ms"] = ms(tail)
		m["peak_rss_mib"] = float64(rss) / (1 << 20)
	}

	// The gate's second path: a seeded 5% sample of the distinct cells,
	// evaluated in this process and rendered as the daemon would.
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cells := map[string]job{}
	for _, a := range append(open, closed...) {
		cells[a.req.job.cell.Key()] = a.req.job
	}
	var xrec *recorder
	if cfg.traced {
		xrec = newRecorder(epoch, cfg.workers)
		recs = append(recs, xrec)
	}
	var checked []job
	for _, i := range sample(cfg.seed, len(keys)) {
		k := keys[i]
		checked = append(checked, cells[k])
		r := runCell(cells[k], i, xrec)
		rep.Attempted++
		if r.err != nil || r.sum != sha256.Sum256(bodies[k]) {
			rep.Failed++
			logf("cross-check %s: engine.Do renders different bytes than the daemon (%v)", k, r.err)
		}
	}

	if cfg.traced {
		n := float64(len(open))
		m["mserve.hit_p50_ms"] = ms(median(hit))
		m["mserve.miss_p50_ms"] = ms(median(miss))
		m["mserve.miss_tail_ms"] = ms(quantile(miss, 0.95))
		m["mserve.hit_frac"] = ratio(float64(len(hit)), n)
		m["mserve.join_frac"] = ratio(float64(joins), n)
		m["bench.gen_lag_p99_ms"] = ms(quantile(lags, 0.99))
		if err := serveLayers(cfg, open, recs, checked, m); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serveLayers adds the in-process layer measurements of a traced serve
// run: set-up by layer at the serve truncation, the kernel probes,
// request decode and validation, and the cross-check sample's spans.
func serveLayers(cfg config, open []answer, recs []*recorder, checked []job, m map[string]float64) error {
	rec := newRecorder(now(), cfg.workers+1)
	footprint, steps, err := setupLayers(cfg.scale.serveSteps, rec)
	if err != nil {
		return err
	}
	var bodies [][]byte
	for _, a := range open {
		bodies = append(bodies, a.req.body)
	}
	if err := validateSpans(bodies, rec); err != nil {
		return err
	}
	if m["core.loop_ns_per_step"], err = probeLoop(cfg.scale.serveSteps); err != nil {
		return err
	}
	m["core.dolc_index_ns"] = probeDOLC()
	recs = append(recs, rec)
	if err := layerMetrics(recs, checked, steps, footprint, m); err != nil {
		return err
	}
	if cfg.spans != "" {
		return writeSpans(cfg.spans, recs)
	}
	return nil
}
