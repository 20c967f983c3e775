package mserve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/engine"
	"multiscalar/internal/obs"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// readSSE parses events off an SSE stream until the callback returns
// false or the stream ends.
func readSSE(t *testing.T, resp *http.Response, each func(sseEvent) bool) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if ev.event != "" {
				if !each(ev) {
					return
				}
			}
			ev = sseEvent{}
		}
	}
}

// openProgress opens the SSE progress stream for key under ctx.
func openProgress(t *testing.T, ctx context.Context, base, key string, waitSecs string) *http.Response {
	t.Helper()
	url := base + "/progress?key=" + strings.ReplaceAll(key, "+", "%2B") + "&wait=" + waitSecs
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /progress: %v", err)
	}
	return resp
}

// TestProgressStreamToCompletion consumes a cell's progress stream to
// its terminal event and checks the final event names exactly the key
// the cached response body carries.
func TestProgressStreamToCompletion(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ProgressInterval: 5 * time.Millisecond, SampleInterval: 5 * time.Millisecond})

	// Gate the run so the stream reliably observes it in flight: the
	// runner holds until the stream's first progress event arrives.
	release := make(chan struct{})
	var releaseOnce sync.Once
	s.Pool().SetRunner(func(r engine.Run) engine.Result {
		<-release
		return engine.Do(r)
	})

	cell := Cell{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", Mode: engine.ModeExit, Steps: 4000}
	key := cell.Key()

	evalDone := make(chan []byte, 1)
	go func() {
		_, _, body := postEval(t, ts.URL, `{"workload":"boolmin","spec":"path:d7-o5-l6-c6-f3:leh2","steps":4000}`)
		evalDone <- body
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp := openProgress(t, ctx, ts.URL, key, "10")
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("progress stream status = %d", resp.StatusCode)
	}

	var final ProgressDone
	sawProgress := false
	readSSE(t, resp, func(ev sseEvent) bool {
		switch ev.event {
		case "progress":
			sawProgress = true
			var snap obs.RunStatusSnapshot
			if err := json.Unmarshal([]byte(ev.data), &snap); err != nil {
				t.Errorf("bad progress payload %q: %v", ev.data, err)
			}
			if snap.Label != key {
				t.Errorf("progress label = %q, want %q", snap.Label, key)
			}
			releaseOnce.Do(func() { close(release) })
			return true
		case "done":
			if err := json.Unmarshal([]byte(ev.data), &final); err != nil {
				t.Errorf("bad done payload %q: %v", ev.data, err)
			}
			return false
		}
		return true
	})
	if !sawProgress {
		t.Error("stream delivered no progress events")
	}
	if !final.OK || final.Key != key {
		t.Fatalf("done event = %+v, want ok for key %q", final, key)
	}

	body := <-evalDone
	var er EvalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("eval body: %v", err)
	}
	if er.Key != final.Key {
		t.Fatalf("stream ended with key %q, cached body has %q", final.Key, er.Key)
	}
}

// TestProgressStreamClientDisconnect pins the disconnect contract: a
// progress watcher dropping mid-run must not cancel the shared run —
// the evaluation completes and its result is cached.
func TestProgressStreamClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ProgressInterval: 5 * time.Millisecond})

	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s.Pool().SetRunner(func(r engine.Run) engine.Result {
		once.Do(func() { close(started) })
		<-release
		return engine.Do(r)
	})

	cell := Cell{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", Mode: engine.ModeExit, Steps: 2000}
	key := cell.Key()

	evalDone := make(chan []byte, 1)
	go func() {
		_, _, body := postEval(t, ts.URL, `{"workload":"boolmin","spec":"path:d7-o5-l6-c6-f3:leh2","steps":2000}`)
		evalDone <- body
	}()
	<-started

	disconnectsBefore := obs.Default().Counter("mserve.progress.disconnects").Value()
	ctx, cancel := context.WithCancel(context.Background())
	resp := openProgress(t, ctx, ts.URL, key, "5")
	if resp.StatusCode != 200 {
		t.Fatalf("progress stream status = %d", resp.StatusCode)
	}
	got := make(chan struct{})
	go readSSE(t, resp, func(ev sseEvent) bool {
		close(got)
		return false // one event is enough; a second would close got again
	})
	<-got
	cancel() // client walks away mid-run
	resp.Body.Close()

	// Wait until the handler notices the disconnect — the run is still
	// held by the stub, so a recorded disconnect here proves the stream
	// ended while the shared run was alive.
	deadline := time.Now().Add(10 * time.Second)
	for obs.Default().Counter("mserve.progress.disconnects").Value() == disconnectsBefore {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The disconnect must not have cancelled the run: release it and
	// check the result still lands in cache.
	close(release)
	body := <-evalDone
	var er EvalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("eval body after watcher disconnect: %v (body %q)", err, body)
	}
	if er.Key != key {
		t.Fatalf("eval key = %q, want %q", er.Key, key)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache len = %d, want 1 (run must cache despite watcher disconnect)", s.CacheLen())
	}
}

// TestProgressUnknownCell checks the 404 and ?wait paths.
func TestProgressUnknownCell(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/progress?key=nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cell status = %d, want 404", resp.StatusCode)
	}
}

// TestProgressCachedCell checks an already-cached cell answers with an
// immediate done event.
func TestProgressCachedCell(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	status, _, _ := postEval(t, ts.URL, `{"workload":"boolmin","spec":"path:d7-o5-l6-c6-f3:leh2","steps":2000}`)
	if status != 200 {
		t.Fatalf("eval status = %d", status)
	}
	cell := Cell{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", Mode: engine.ModeExit, Steps: 2000}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := openProgress(t, ctx, ts.URL, cell.Key(), "0")
	defer resp.Body.Close()
	var final ProgressDone
	readSSE(t, resp, func(ev sseEvent) bool {
		if ev.event == "done" {
			json.Unmarshal([]byte(ev.data), &final)
			return false
		}
		return true
	})
	if !final.OK || final.Key != cell.Key() {
		t.Fatalf("done = %+v, want immediate ok for cached cell", final)
	}
}

// TestStatusz checks the /statusz shape: the request id header, pool
// occupancy, cache stats, the run registry with the evaluated cell
// retired into recent, and a time-series tail.
func TestStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SampleInterval: 5 * time.Millisecond})
	status, _, _ := postEval(t, ts.URL, `{"workload":"boolmin","spec":"path:d7-o5-l6-c6-f3:leh2","steps":2000}`)
	if status != 200 {
		t.Fatalf("eval status = %d", status)
	}

	// Give the background sampler a tick.
	time.Sleep(30 * time.Millisecond)

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Mserve-Request") == "" {
		t.Fatal("/statusz response carried no X-Mserve-Request id")
	}
	var sz StatuszResponse
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		t.Fatalf("decode /statusz: %v", err)
	}
	if sz.Pool.Workers != 2 || sz.Pool.Capacity <= 0 {
		t.Fatalf("pool section = %+v", sz.Pool)
	}
	if sz.Cache.Results < 1 || sz.Cache.Misses < 1 {
		t.Fatalf("cache section = %+v, want the evaluated cell recorded", sz.Cache)
	}
	key := Cell{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:leh2", Mode: engine.ModeExit, Steps: 2000}.Key()
	found := false
	for _, snap := range sz.Runs.Recent {
		if snap.Label == key && snap.Phase == "done" && snap.Steps == snap.Total && snap.Total == 2000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("recent runs %+v missing done entry for %q", sz.Runs.Recent, key)
	}
	if len(sz.Series.Samples) == 0 {
		t.Fatal("statusz series tail is empty")
	}
}
