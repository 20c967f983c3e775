// Command mservesmoke is the CI end-to-end smoke for cmd/mserve: it
// builds the daemon, starts it on an ephemeral port, and drives the full
// robustness envelope from outside the process — cold grid pass, cached
// re-pass (every answer byte-identical and marked "hit"), a live
// progress pass (the SSE stream for a long cold cell must deliver
// progress events and terminate with exactly the cached result's key),
// a /statusz capture (written to the second argument for checkjson), an
// oversized body (413), an overload burst that must shed with
// 429+Retry-After and answer nothing but 200 or 429, and finally SIGTERM
// for a graceful drain with a flushed metrics snapshot (validated by
// scripts/checkjson from check.sh). Any violation exits 1.
//
// Usage: mservesmoke <metrics-out-path> <statusz-out-path>
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"multiscalar/internal/engine"
	"multiscalar/internal/mserve"
)

type cell struct {
	workload string
	spec     string
	steps    int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mservesmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("mservesmoke: OK")
}

func run() error {
	if len(os.Args) != 3 {
		return fmt.Errorf("usage: mservesmoke <metrics-out-path> <statusz-out-path>")
	}
	metricsOut, statuszOut := os.Args[1], os.Args[2]

	tmp, err := os.MkdirTemp("", "mservesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "mserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/mserve")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building mserve: %w", err)
	}

	addrFile := filepath.Join(tmp, "addr")
	daemon := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", "1", "-queue", "2",
		"-progress-interval", "5ms", "-sample-interval", "50ms",
		"-metrics-out", metricsOut)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("starting mserve: %w", err)
	}
	defer daemon.Process.Kill() // no-op after a clean Wait

	// Wait for the daemon to announce its ephemeral address.
	var base string
	for i := 0; i < 100; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			base = "http://" + strings.TrimSpace(string(b))
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if base == "" {
		return fmt.Errorf("daemon never wrote %s", addrFile)
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	grid := []cell{}
	for _, wl := range []string{"exprc", "boolmin"} {
		for _, spec := range []string{
			"path:d7-o5-l6-c6-f3:leh2",
			"cttb:d7-o4-l4-c5-f3",
			"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3",
		} {
			grid = append(grid, cell{workload: wl, spec: spec, steps: 4000})
		}
	}

	// Pass 1 (cold): every cell evaluates and answers 200.
	first := make(map[string][]byte, len(grid))
	for _, c := range grid {
		status, hdr, body, err := post(client, base, c)
		if err != nil {
			return fmt.Errorf("cold pass %s/%s: %w", c.workload, c.spec, err)
		}
		if status != 200 {
			return fmt.Errorf("cold pass %s/%s: status %d: %s", c.workload, c.spec, status, body)
		}
		if cp := hdr.Get("X-Mserve-Cache"); cp != "miss" {
			return fmt.Errorf("cold pass %s/%s: cache path %q, want miss", c.workload, c.spec, cp)
		}
		first[c.workload+"/"+c.spec] = body
	}
	fmt.Printf("mservesmoke: cold pass ok (%d cells)\n", len(grid))

	// Pass 2 (warm): every answer must come from the cache, byte-identical.
	for _, c := range grid {
		status, hdr, body, err := post(client, base, c)
		if err != nil {
			return fmt.Errorf("warm pass %s/%s: %w", c.workload, c.spec, err)
		}
		if status != 200 {
			return fmt.Errorf("warm pass %s/%s: status %d", c.workload, c.spec, status)
		}
		if cp := hdr.Get("X-Mserve-Cache"); cp != "hit" {
			return fmt.Errorf("warm pass %s/%s: cache path %q, want hit", c.workload, c.spec, cp)
		}
		if !bytes.Equal(body, first[c.workload+"/"+c.spec]) {
			return fmt.Errorf("warm pass %s/%s: cached bytes differ from the cold answer", c.workload, c.spec)
		}
	}
	fmt.Println("mservesmoke: warm pass ok (all hits, byte-identical)")

	// Live progress pass: open the SSE stream for a long cold cell
	// before it is even submitted (?wait covers the gap), POST it, and
	// require the stream to deliver progress events and terminate with a
	// done event naming exactly the key the cached response body carries.
	progCell := cell{workload: "boolmin", spec: "path:d2-o4-l5-c5:vc2rand:seed777", steps: 120000}
	progKey := mserve.Cell{Workload: progCell.workload, Spec: progCell.spec, Mode: engine.ModeExit, Steps: progCell.steps}.Key()

	type streamResult struct {
		progress int
		done     map[string]any
		err      error
	}
	streamCh := make(chan streamResult, 1)
	go func() {
		resp, err := client.Get(base + "/progress?key=" + url.QueryEscape(progKey) + "&wait=15")
		if err != nil {
			streamCh <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			b, _ := io.ReadAll(resp.Body)
			streamCh <- streamResult{err: fmt.Errorf("progress stream status %d: %s", resp.StatusCode, b)}
			return
		}
		var res streamResult
		sc := bufio.NewScanner(resp.Body)
		event, data := "", ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "":
				switch event {
				case "progress":
					res.progress++
				case "done":
					if err := json.Unmarshal([]byte(data), &res.done); err != nil {
						res.err = fmt.Errorf("bad done payload %q: %v", data, err)
					}
					streamCh <- res
					return
				}
				event, data = "", ""
			}
		}
		res.err = fmt.Errorf("progress stream ended without a done event (scan err %v)", sc.Err())
		streamCh <- res
	}()

	// Give the watcher a moment to enter its wait loop, then submit.
	time.Sleep(200 * time.Millisecond)
	status, _, body, err := post(client, base, progCell)
	if err != nil || status != 200 {
		return fmt.Errorf("progress cell POST: status %d err %v", status, err)
	}
	var evalBody map[string]any
	if err := json.Unmarshal(body, &evalBody); err != nil {
		return fmt.Errorf("progress cell body: %w", err)
	}
	bodyKey, _ := evalBody["key"].(string)
	if bodyKey != progKey {
		return fmt.Errorf("progress cell key = %q, want %q", bodyKey, progKey)
	}

	sres := <-streamCh
	if sres.err != nil {
		return fmt.Errorf("progress stream: %w", sres.err)
	}
	if sres.progress < 1 {
		return fmt.Errorf("progress stream delivered no progress events before done")
	}
	if ok, _ := sres.done["ok"].(bool); !ok {
		return fmt.Errorf("progress done event not ok: %v", sres.done)
	}
	if doneKey, _ := sres.done["key"].(string); doneKey != bodyKey {
		return fmt.Errorf("progress stream ended with key %q, cached body has %q", sres.done["key"], bodyKey)
	}
	status, hdr, _, err := post(client, base, progCell)
	if err != nil || status != 200 || hdr.Get("X-Mserve-Cache") != "hit" {
		return fmt.Errorf("progress cell re-POST: status %d cache %q err %v, want cached hit", status, hdr.Get("X-Mserve-Cache"), err)
	}
	fmt.Printf("mservesmoke: progress pass ok (%d progress events, done key matches cached result)\n", sres.progress)

	// Statusz capture: must answer with a request id and a body that
	// checkjson validates (pool/cache/runs sections + ordered series).
	resp, err := client.Get(base + "/statusz")
	if err != nil {
		return fmt.Errorf("GET /statusz: %w", err)
	}
	szBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		return fmt.Errorf("GET /statusz: status %d err %v", resp.StatusCode, err)
	}
	if resp.Header.Get("X-Mserve-Request") == "" {
		return fmt.Errorf("/statusz response missing X-Mserve-Request id")
	}
	if err := os.WriteFile(statuszOut, szBody, 0o644); err != nil {
		return fmt.Errorf("writing statusz capture: %w", err)
	}
	fmt.Println("mservesmoke: statusz captured")

	// Hardened decoder: an oversized body must be a structured 413.
	big := `{"workload":"boolmin","spec":"` + strings.Repeat("x", 1<<17) + `"}`
	resp, err = client.Post(base+"/eval", "application/json", strings.NewReader(big))
	if err != nil {
		return fmt.Errorf("oversized POST: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		return fmt.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	fmt.Println("mservesmoke: oversized body rejected (413)")

	// Overload burst: fire 8× the daemon's admission capacity (1 worker +
	// 2 queued = 3) of simultaneous distinct cells. Tiny cells evaluate
	// fast, so a round can theoretically drain before the burst lands —
	// retry a few rounds with fresh (uncached) cells; at least one round
	// must produce a 429. Degradation must stay graceful in every round:
	// each answer is a 200 or a 429 carrying Retry-After >= 1, never a
	// 5xx or a dropped connection.
	const burst = 24
	shed := false
	for round := 0; round < 5 && !shed; round++ {
		var wg sync.WaitGroup
		sheds := make([]int, burst)
		failures := make([]string, burst)
		barrier := make(chan struct{})
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := cell{
					workload: "boolmin",
					spec:     fmt.Sprintf("path:d2-o4-l5-c5:vc2rand:seed%d", 1000*round+i+1),
					steps:    60000,
				}
				<-barrier
				status, hdr, body, err := post(client, base, c)
				switch {
				case err != nil:
					failures[i] = fmt.Sprintf("POST: %v", err)
				case status == 200:
				case status == http.StatusTooManyRequests:
					if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && ra >= 1 {
						sheds[i] = 1
					} else {
						failures[i] = fmt.Sprintf("429 without a positive Retry-After (%q)", hdr.Get("Retry-After"))
					}
				default:
					failures[i] = fmt.Sprintf("status %d (want 200 or 429): %s", status, body)
				}
			}(i)
		}
		close(barrier)
		wg.Wait()
		n := 0
		for i := range sheds {
			if failures[i] != "" {
				return fmt.Errorf("burst round %d, request %d: %s", round+1, i, failures[i])
			}
			n += sheds[i]
		}
		fmt.Printf("mservesmoke: burst round %d: %d/%d shed with Retry-After\n", round+1, n, burst)
		shed = n > 0
	}
	if !shed {
		return fmt.Errorf("burst never shed: admission control did not engage at 8x capacity")
	}

	// Graceful drain: SIGTERM must exit 0 and flush the metrics snapshot.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	if err := daemon.Wait(); err != nil {
		return fmt.Errorf("daemon did not drain cleanly: %w", err)
	}
	if fi, err := os.Stat(metricsOut); err != nil || fi.Size() == 0 {
		return fmt.Errorf("metrics snapshot missing or empty at %s (stat err %v)", metricsOut, err)
	}
	fmt.Println("mservesmoke: SIGTERM drained cleanly, metrics flushed")
	return nil
}

// post issues one /eval request for a cell.
func post(client *http.Client, base string, c cell) (int, http.Header, []byte, error) {
	body := fmt.Sprintf(`{"workload":%q,"spec":%q,"steps":%d}`, c.workload, c.spec, c.steps)
	resp, err := client.Post(base+"/eval", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}
