package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"regexp"
	"testing"
	"time"

	"multiscalar/internal/mserve"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	sweepSpecs: sweepSlots, sweepSteps: 1000,
	specReplay: 4, specSteps: 1000, specTiming: 2, timingSteps: 500,
	streamSpecs: 4, streamSteps: 1000,
	serveHot: 6, serveSteps: 1000, serveTruncs: [2]int{500, 1500},
	serveRate: 100, serveDigest: 16,
}

// inProcess is an mserve server inside the test process.
type inProcess struct {
	srv  *mserve.Server
	base string
}

func startInProcess() (server, error) {
	srv := mserve.New(mserve.Config{Workers: 1, CacheCap: 1 << 20, AccessLog: slog.New(slog.NewTextHandler(io.Discard, nil))})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &inProcess{srv: srv, base: "http://" + addr.String()}, nil
}

func (p *inProcess) url() string { return p.base }

func (p *inProcess) cpu() (time.Duration, error) {
	cpu, _ := usage()
	return cpu, nil
}

func (p *inProcess) stop() (int64, error) {
	err := p.srv.Shutdown(context.Background())
	_, rss := usage()
	return rss, err
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced with
// one and with two bench goroutines, and traced with two. Every run must
// pass its correctness gate, emit exactly the metrics BENCHMARK.json
// declares with their units, and produce the same digest.
func TestWorkloadsSmoke(t *testing.T) {
	e2e, layers := declared(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	logf := func(format string, a ...any) { t.Logf(format, a...) }
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			digest := ""
			for _, run := range []struct {
				workers int
				traced  bool
			}{{1, false}, {2, false}, {2, true}} {
				cfg := config{workload: name, seed: 7, traced: run.traced, workers: run.workers, scale: tinyScale}
				var rep *report
				var err error
				if name == "serve" {
					cfg.seconds = 0.3
					rep, err = measureServe(cfg, 1, startInProcess, logf)
				} else {
					rep, err = measureBatch(cfg, logf)
				}
				if err != nil {
					t.Fatalf("%+v: %v", run, err)
				}
				res, err := format(rep, run.traced)
				if err != nil {
					t.Fatalf("%+v: %v", run, err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("%+v: %d of %d failed", run, res.Failed, res.Attempted)
				}
				want := e2e
				if run.traced {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%+v: emitted %d metrics, BENCHMARK.json declares %d", run, len(res.Metrics), len(want))
				}
				for m, unit := range want {
					if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
						t.Errorf("%+v: metric %s emitted as %+v, declared with unit %q", run, m, got, unit)
					}
				}
				for m := range res.Metrics {
					if !valid.MatchString(m) {
						t.Errorf("metric name %q is not a valid name", m)
					}
				}
				if digest == "" {
					digest = rep.Digest
				} else if rep.Digest != digest {
					t.Errorf("%+v: digest %s, first run had %s", run, rep.Digest, digest)
				}
			}
		})
	}
}
