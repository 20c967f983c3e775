package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/mserve"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// span is one timed call from benchmark code into a layer.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32 // index in the same recorder; -1 for a root
	id         int32 // cell or request id
}

// recorder keeps one goroutine's spans in memory until the run ends. A
// nil recorder records nothing, so untraced paths pay only a nil check.
type recorder struct {
	epoch time.Time
	tid   int
	spans []span
}

func newRecorder(epoch time.Time, tid int) *recorder { return &recorder{epoch: epoch, tid: tid} }

func (r *recorder) begin(name string, parent, id int32) int32 {
	if r == nil {
		return -1
	}
	t := int64(now().Sub(r.epoch))
	r.spans = append(r.spans, span{name: name, start: t, end: t, parent: parent, id: id})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil {
		r.spans[i].end = int64(now().Sub(r.epoch))
	}
}

// timedSource records a span around every NextBlock call, so the time a
// replay kernel waits for its trace (a cursor step, or simulation plus
// block building when streaming) is split from the kernel's own.
type timedSource struct {
	src    trace.BlockSource
	rec    *recorder
	parent int32
	id     int32
}

func (t *timedSource) NextBlock() (*trace.Block, error) {
	s := t.rec.begin("workload.next_block", t.parent, t.id)
	b, err := t.src.NextBlock()
	t.rec.end(s)
	return b, err
}

// coreSpan names the replay kernel span of a cell by predictor family.
func coreSpan(sp *engine.Spec, mode engine.Mode) string {
	switch {
	case mode == engine.ModeTarget:
		return "core.target"
	case mode == engine.ModeTask && sp.SpecUpdate():
		return "core.spec_task"
	case mode == engine.ModeTask:
		return "core.task"
	case sp.SpecUpdate():
		return "core.spec_exit"
	case sp.Exit().Scheme <= engine.SchemePer:
		return "core.exit_real"
	default:
		return "core.exit_ideal"
	}
}

// runLayers evaluates one cell by calling each layer itself, in the
// order engine.Do does (parse → build → trace acquire → replay kernel or
// timing model), with a span around every call. Its result must render
// byte-identically to engine.Do's; the cross-check holds it to that.
func runLayers(j job, rec *recorder, id int32) (engine.Result, error) {
	c := j.cell
	root := rec.begin("cell", -1, id)
	defer rec.end(root)
	res := engine.Result{Run: c.Run()}
	res.Run.Stream = j.stream

	s := rec.begin("engine.parse", root, id)
	sp, err := engine.Parse(c.Spec)
	rec.end(s)
	if err != nil {
		return res, err
	}
	res.Spec = sp

	if c.Mode == engine.ModeTiming {
		s = rec.begin("workload.acquire", root, id)
		w, err := workload.ByName(c.Workload)
		var g *tfg.Graph
		if err == nil {
			g, err = w.Graph()
		}
		rec.end(s)
		if err != nil {
			return res, err
		}
		s = rec.begin("engine.build", root, id)
		pred, err := sp.BuildTask()
		rec.end(s)
		if err != nil {
			return res, err
		}
		s = rec.begin("timing.run", root, id)
		res.Timing, err = timing.Run(g, pred, timing.Config{
			MaxSteps: c.TimingSteps, SpecUpdate: sp.SpecUpdate(),
			SpecLag: sp.SpecLag(), RepairLatency: sp.RepairLat(),
		})
		rec.end(s)
		return res, err
	}

	s = rec.begin("workload.acquire", root, id)
	var src trace.BlockSource
	if j.stream {
		src, err = workload.StreamBlocks(c.Workload, c.Steps, 1)
	} else {
		var col *trace.Columnar
		if col, err = workload.CachedColumnar(c.Workload, c.Steps); err == nil {
			src = col.Blocks()
		}
	}
	rec.end(s)
	if err != nil {
		return res, err
	}
	ts := &timedSource{src: src, rec: rec, id: id}
	if rec != nil {
		src = ts
	}

	s = rec.begin("engine.build", root, id)
	var exitP core.ExitPredictor
	var buf core.TargetBuffer
	var taskP core.TaskPredictor
	switch c.Mode {
	case engine.ModeExit:
		exitP, err = sp.BuildExit()
	case engine.ModeTarget:
		buf, err = sp.BuildTarget()
	case engine.ModeTask:
		taskP, err = sp.BuildTask()
	default:
		err = fmt.Errorf("bench: cell %s has no replay mode", c.Key())
	}
	rec.end(s)
	if err != nil {
		return res, err
	}

	s = rec.begin(coreSpan(sp, c.Mode), root, id)
	ts.parent = s
	switch c.Mode {
	case engine.ModeExit:
		if sp.SpecUpdate() {
			res.Exit, err = core.EvaluateExitSpecBlocks(src, exitP, sp.SpecLag())
		} else {
			res.Exit, err = core.EvaluateExitBlocks(src, exitP)
		}
	case engine.ModeTarget:
		res.Target, err = core.EvaluateIndirectBlocks(src, buf)
	case engine.ModeTask:
		if sp.SpecUpdate() {
			res.Task, err = core.EvaluateTaskSpecBlocks(src, taskP, sp.SpecLag())
		} else {
			res.Task, err = core.EvaluateTaskBlocks(src, taskP)
		}
	}
	rec.end(s)
	return res, err
}

// render returns the daemon's exact success body for a cell's result:
// the bytes the correctness gate hashes and compares.
func render(c mserve.Cell, res engine.Result) ([]byte, error) {
	b, err := json.Marshal(mserve.RenderResponse(c, res))
	if err != nil {
		return nil, fmt.Errorf("rendering %s: %w", c.Key(), err)
	}
	return append(b, '\n'), nil
}

// layerTimes sums span durations and self times by span name across
// recorders. Self time is a span's duration minus the part of it its
// direct children cover.
type layerTimes struct {
	total, self map[string]int64
	durs        map[string][]float64 // per-span durations in ns
}

func sumLayers(recs []*recorder) layerTimes {
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, durs: map[string][]float64{}}
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			d := s.end - s.start
			lt.total[s.name] += d
			lt.self[s.name] += d - child[i]
			lt.durs[s.name] = append(lt.durs[s.name], float64(d))
		}
	}
	return lt
}

// layerMetrics derives the span-based per-layer metrics every workload
// shares from its recorders: set-up by layer over `steps` encoded tasks
// per the setupLayers spans, and the cell layers over the traced jobs.
func layerMetrics(recs []*recorder, traced []job, steps, footprint int, m map[string]float64) error {
	lt := sumLayers(recs)
	perStep := map[string]int{}
	for _, j := range traced {
		if j.cell.Mode == engine.ModeTiming {
			perStep["timing.run"] += j.tasks()
			continue
		}
		sp, err := engine.Parse(j.cell.Spec)
		if err != nil {
			return err
		}
		perStep[coreSpan(sp, j.cell.Mode)] += j.tasks()
		perStep["workload.next_block"] += j.tasks()
	}
	m["msl.compile_ms"] = ms(float64(lt.total["msl.compile"]))
	m["taskform.partition_ms"] = ms(float64(lt.total["taskform.partition"]))
	m["functional.ns_per_task"] = ratio(float64(lt.total["functional.run"]), float64(steps))
	m["trace.encode_ns_per_step"] = ratio(float64(lt.total["trace.encode"]), float64(steps))
	m["trace.resident_bytes_per_step"] = ratio(float64(footprint), float64(steps))
	m["workload.acquire_us"] = median(lt.durs["workload.acquire"]) / 1e3
	m["engine.parse_us"] = median(lt.durs["engine.parse"]) / 1e3
	m["engine.build_us"] = median(lt.durs["engine.build"]) / 1e3
	m["mserve.validate_us"] = median(lt.durs["mserve.validate"]) / 1e3
	m["mserve.render_us"] = median(lt.durs["mserve.render"]) / 1e3
	for _, name := range []string{"workload.next_block", "timing.run", "core.exit_real", "core.exit_ideal",
		"core.target", "core.task", "core.spec_exit", "core.spec_task"} {
		key := name + "_ns_per_step"
		if name == "timing.run" {
			key = "timing.ns_per_task"
		}
		m[key] = ratio(float64(lt.self[name]), float64(perStep[name]))
	}
	cell := float64(lt.total["cell"])
	m["bench.span_coverage_frac"] = ratio(cell-float64(lt.self["cell"]), cell)
	return nil
}

// validateSpans times the daemon's request decode and validation on
// each request body, as the mserve layer sees it.
func validateSpans(bodies [][]byte, rec *recorder) error {
	for i, body := range bodies {
		s := rec.begin("mserve.validate", -1, int32(i))
		req, err := mserve.DecodeEvalRequest(httptest.NewRecorder(), httptest.NewRequest("POST", "/eval", bytes.NewReader(body)), 0)
		if err == nil {
			_, err = mserve.ValidateEvalRequest(req)
		}
		rec.end(s)
		if err != nil {
			return fmt.Errorf("request %s no longer validates: %w", body, err)
		}
	}
	return nil
}

// writeSpans writes every recorded span as Chrome trace-event JSON (one
// complete event per span; the parent's index and the cell or request id
// ride in args).
func writeSpans(path string, recs []*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	for _, r := range recs {
		for _, s := range r.spans {
			events = append(events, event{
				Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				PID: 1, TID: r.tid, Args: map[string]int{"id": int(s.id), "parent": int(s.parent)},
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
