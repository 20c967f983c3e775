package mserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
)

// newTestServer builds an mserve server on an httptest listener. The
// caller owns Shutdown (via the returned cleanup).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postEval posts one eval body and returns the status, headers, and body.
func postEval(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/eval", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /eval: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestServerEvalMatchesDirectRun checks the served bytes are exactly what
// a direct engine run of the same cell renders — the byte-identity
// contract the run memo rests on — and that a repeat request is a
// cache hit with identical bytes, for each spec class: a real PATH exit
// predictor, an ideal GLOBAL one, a CTTB target buffer and the composed
// task predictor.
func TestServerEvalMatchesDirectRun(t *testing.T) {
	for _, tc := range []struct {
		spec string
		mode engine.Mode
	}{
		{"path:d7-o5-l6-c6-f3:leh2", engine.ModeExit},
		{"iglobal:d7:leh2", engine.ModeExit},
		{"cttb:d7-o4-l4-c5-f3", engine.ModeTarget},
		{"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3", engine.ModeTask},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})

			cell := Cell{Workload: "boolmin", Spec: tc.spec, Mode: tc.mode, Steps: 2000}
			want, err := json.Marshal(RenderResponse(cell, engine.Do(cell.Run())))
			if err != nil {
				t.Fatalf("render direct run: %v", err)
			}
			want = append(want, '\n')

			body := `{"workload":"boolmin","spec":"` + tc.spec + `","steps":2000}`
			status, hdr, got := postEval(t, ts.URL, body)
			if status != 200 {
				t.Fatalf("first eval: status %d body %s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("served bytes differ from direct run:\n got: %s\nwant: %s", got, want)
			}
			if cp := hdr.Get("X-Mserve-Cache"); cp != "miss" {
				t.Fatalf("first eval cache path = %q, want miss", cp)
			}

			status, hdr, got2 := postEval(t, ts.URL, body)
			if status != 200 {
				t.Fatalf("second eval: status %d body %s", status, got2)
			}
			if cp := hdr.Get("X-Mserve-Cache"); cp != "hit" {
				t.Fatalf("second eval cache path = %q, want hit", cp)
			}
			if !bytes.Equal(got2, want) {
				t.Fatal("cache hit bytes differ from first answer")
			}
			if n := s.Pool().MemoStats().Misses; n != 1 {
				t.Fatalf("evals = %d, want 1 (second request must be served from cache)", n)
			}
			if n := s.Pool().MemoStats().Results; n != 1 {
				t.Fatalf("cache len = %d, want 1", n)
			}
		})
	}
}

// TestServerCoalescesIdenticalRequests fires M concurrent identical
// requests and checks exactly one evaluation happened and every client
// got byte-identical bodies. Run under -race this also proves the
// pool memo's locking.
func TestServerCoalescesIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	const M = 32
	body := `{"workload":"exprc","spec":"iglobal:d7:leh2","steps":1500}`
	bodies := make([][]byte, M)
	paths := make([]string, M)
	var wg sync.WaitGroup
	for i := 0; i < M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, hdr, b := func() (int, http.Header, []byte) {
				resp, err := http.Post(ts.URL+"/eval", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return 0, nil, nil
				}
				defer resp.Body.Close()
				rb, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, resp.Header, rb
			}()
			if status != 200 {
				t.Errorf("client %d: status %d body %s", i, status, b)
				return
			}
			bodies[i], paths[i] = b, hdr.Get("X-Mserve-Cache")
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := s.Pool().MemoStats().Misses; n != 1 {
		t.Fatalf("evals = %d, want exactly 1 for %d identical concurrent requests", n, M)
	}
	for i := 1; i < M; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d bytes differ from client 0 (paths %q vs %q)", i, paths[i], paths[0])
		}
	}
}

// TestServerShedsUnderLoad saturates a 1-worker/0-queue pool with a
// blocked run and checks the next distinct request is answered 429 with a
// Retry-After hint instead of queuing without bound.
func TestServerShedsUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: -1})
	release := make(chan struct{})
	s.Pool().SetRunner(func(r engine.Run) engine.Result { <-release; return engine.Result{Run: r} })
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		status, _, b := postEval(t, ts.URL, `{"workload":"boolmin","spec":"path:d7-o5-l6-c6-f3:leh2","steps":100}`)
		if status != 200 {
			t.Errorf("blocked-then-released eval: status %d body %s", status, b)
		}
	}()
	deadline := time.After(10 * time.Second)
	for s.Pool().Pending() != 1 {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want 1", s.Pool().Pending())
		default:
			time.Sleep(time.Millisecond)
		}
	}

	status, hdr, b := postEval(t, ts.URL, `{"workload":"exprc","spec":"iglobal:d7:leh2","steps":100}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow eval: status %d body %s, want 429", status, b)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
	}
	var eb ErrorResponse
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != "overloaded" {
		t.Fatalf("shed body = %s (unmarshal err %v), want code overloaded", b, err)
	}

	close(release)
	<-firstDone
}

// TestServerDeadline checks a request whose deadline expires while its
// run is stuck gets a structured 504, and that the abandoned run's
// result is still collected into the cache for the next caller.
func TestServerDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.Pool().SetRunner(func(r engine.Run) engine.Result { <-release; return engine.Result{Run: r} })

	body := `{"workload":"boolmin","spec":"iglobal:d7:leh2","steps":100,"timeout_ms":50}`
	status, _, b := postEval(t, ts.URL, body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline eval: status %d body %s, want 504", status, b)
	}
	var eb ErrorResponse
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != "deadline" {
		t.Fatalf("deadline body = %s (unmarshal err %v), want code deadline", b, err)
	}

	// The run was already started, so the abandoned run must still
	// complete and cache its result ("abandon, never corrupt").
	close(release)
	deadline := time.After(10 * time.Second)
	for s.Pool().MemoStats().Results != 1 {
		select {
		case <-deadline:
			t.Fatalf("memo results = %d, want 1 (abandoned run's result collected)", s.Pool().MemoStats().Results)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	status, hdr, _ := postEval(t, ts.URL, `{"workload":"boolmin","spec":"iglobal:d7:leh2","steps":100}`)
	if status != 200 || hdr.Get("X-Mserve-Cache") != "hit" {
		t.Fatalf("post-abandon eval: status %d cache %q, want 200 hit", status, hdr.Get("X-Mserve-Cache"))
	}
}

// TestServerPanicIsolated checks a panicking run answers a structured 500
// and the pool keeps serving afterwards.
func TestServerPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// The stub runner returns what the engine's panic isolation produces
	// for a panicking predictor: a *fault.PanicError with a stack.
	s.Pool().SetRunner(func(r engine.Run) engine.Result {
		if r.Workload == "boolmin" {
			return engine.Result{Run: r, Err: &fault.PanicError{Value: "predictor exploded", Stack: "goroutine 1 [running]:\nfake.stack()"}}
		}
		return engine.Result{Run: r}
	})

	status, _, b := postEval(t, ts.URL, `{"workload":"boolmin","spec":"iglobal:d7:leh2","steps":100}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("panic eval: status %d body %s, want 500", status, b)
	}
	var eb ErrorResponse
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != "panic" {
		t.Fatalf("panic body = %s (unmarshal err %v), want code panic", b, err)
	}
	if strings.Contains(string(b), "goroutine") {
		t.Fatalf("panic body leaks a stack trace: %s", b)
	}

	status, _, b = postEval(t, ts.URL, `{"workload":"exprc","spec":"iglobal:d7:leh2","steps":100}`)
	if status != 200 {
		t.Fatalf("post-panic eval: status %d body %s, want 200 (pool must keep serving)", status, b)
	}
}

// TestServerDrain serves real load on a listening server — a miss, a
// hit, a coalesced pair and one /progress stream — then checks Shutdown
// leaves no goroutine behind, is idempotent, flips readiness before
// refusing work, and that /eval and /readyz answer accordingly.
func TestServerDrain(t *testing.T) {
	missCell := Cell{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", Mode: engine.ModeExit, Steps: 1500}
	missBody := `{"workload":"boolmin","spec":"path:d7-o5-l6-c6-f3:leh2","steps":1500}`
	pairCell := Cell{Workload: "exprc", Spec: "iglobal:d7:leh2", Mode: engine.ModeExit, Steps: 1500}
	pairBody := `{"workload":"exprc","spec":"iglobal:d7:leh2","steps":1500}`
	// Warm the process trace cache first so the baseline below counts
	// only goroutines the server itself must retire.
	engine.Do(missCell.Run())
	engine.Do(pairCell.Run())
	baseline := runtime.NumGoroutine()

	// Four workers, so a pool that outlives Shutdown leaks more
	// goroutines than the +2 slack below forgives.
	s := New(Config{Workers: 4, ProgressInterval: 5 * time.Millisecond, SampleInterval: 5 * time.Millisecond})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) }) // idempotent; frees the listener on early failure
	base := "http://" + addr.String()
	client := &http.Client{Transport: &http.Transport{}, Timeout: time.Minute}
	post := func(body string) (int, string, []byte) {
		resp, err := client.Post(base+"/eval", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("POST /eval: %v", err)
			return 0, "", nil
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Mserve-Cache"), b
	}

	for _, want := range []string{"miss", "hit"} {
		if status, cp, b := post(missBody); status != 200 || cp != want {
			t.Fatalf("eval: status %d cache %q body %s, want 200 %s", status, cp, b, want)
		}
	}

	// The coalesced pair: hold the first request's run until the second
	// has joined it, with a /progress watcher on the same cell.
	release := make(chan struct{})
	s.Pool().SetRunner(func(r engine.Run) engine.Result { <-release; return engine.Do(r) })
	joined0 := s.Pool().MemoStats().Joins
	type answer struct {
		status int
		cache  string
		body   []byte
	}
	answers := make(chan answer, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, cp, b := post(pairBody)
			answers <- answer{status, cp, b}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/progress?key="+url.QueryEscape(pairCell.Key())+"&wait=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET /progress: %v", err)
	}
	deadline := time.After(10 * time.Second)
	for s.Pool().MemoStats().Joins == joined0 {
		select {
		case <-deadline:
			close(release)
			t.Fatal("second request never joined the run")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	var done ProgressDone
	readSSE(t, stream, func(ev sseEvent) bool {
		if ev.event != "done" {
			return true
		}
		if err := json.Unmarshal([]byte(ev.data), &done); err != nil {
			t.Errorf("bad done payload %q: %v", ev.data, err)
		}
		return false
	})
	stream.Body.Close()
	if !done.OK || done.Key != pairCell.Key() {
		t.Fatalf("progress done event = %+v, want ok for %q", done, pairCell.Key())
	}
	a, b := <-answers, <-answers
	if a.status != 200 || b.status != 200 || !bytes.Equal(a.body, b.body) {
		t.Fatalf("coalesced pair: statuses %d/%d, bodies equal %v", a.status, b.status, bytes.Equal(a.body, b.body))
	}
	if paths := a.cache + "+" + b.cache; paths != "miss+join" && paths != "join+miss" {
		t.Fatalf("coalesced pair cache paths = %s, want one miss and one join", paths)
	}
	if n := s.Pool().MemoStats().Misses; n != 2 {
		t.Fatalf("evals = %d, want 2 (one per distinct cell)", n)
	}

	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil { // idempotent
		t.Fatalf("second shutdown: %v", err)
	}
	client.CloseIdleConnections()
	for i := 0; runtime.NumGoroutine() > baseline+2; i++ {
		if i == 100 {
			t.Fatalf("goroutine leak: %d alive after Shutdown, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable || w.Body.String() != "draining\n" {
		t.Fatalf("/readyz during drain: %d %q, want 503 draining", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/eval",
		strings.NewReader(`{"workload":"boolmin","spec":"perfect","mode":"timing"}`)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/eval during drain: %d %s, want 503", w.Code, w.Body.String())
	}
	var eb ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code != "draining" {
		t.Fatalf("drain body = %s, want code draining", w.Body.String())
	}

	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200 (liveness never flips)", w.Code)
	}
}

// TestServerMethodAndIndex covers the small routes: method guards, the
// index page, and the workload listing.
func TestServerMethodAndIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/eval")
	if err != nil {
		t.Fatalf("GET /eval: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET /eval: %d Allow=%q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	resp, err = http.Get(ts.URL + "/workloads")
	if err != nil {
		t.Fatalf("GET /workloads: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /workloads: %d %s", resp.StatusCode, b)
	}
	var rows []workloadJSON
	if err := json.Unmarshal(b, &rows); err != nil || len(rows) != 5 {
		t.Fatalf("workloads = %s (err %v), want 5 rows", b, err)
	}

	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatalf("GET /: %v", err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(b, []byte("/eval")) {
		t.Fatalf("index should list routes: %s", b)
	}
}
