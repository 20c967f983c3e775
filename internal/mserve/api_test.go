package mserve

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
)

// decode runs one body through the hardened decoder with the given cap.
func decode(t *testing.T, body string, maxBody int64) (*EvalRequest, error) {
	t.Helper()
	r := httptest.NewRequest("POST", "/eval", strings.NewReader(body))
	w := httptest.NewRecorder()
	return DecodeEvalRequest(w, r, maxBody)
}

// reqErr asserts err is a *RequestError with the wanted status and code.
func reqErr(t *testing.T, err error, status int, code string) *RequestError {
	t.Helper()
	if err == nil {
		t.Fatalf("want %d %s error, got nil", status, code)
	}
	re, ok := err.(*RequestError)
	if !ok {
		t.Fatalf("want *RequestError, got %T: %v", err, err)
	}
	if re.Status != status || re.Code != code {
		t.Fatalf("error = %d %s (%s), want %d %s", re.Status, re.Code, re.Message, status, code)
	}
	return re
}

func TestDecodeEvalRequest(t *testing.T) {
	t.Run("ok", func(t *testing.T) {
		req, err := decode(t, `{"workload":"boolmin","spec":"perfect","mode":"timing"}`, 0)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if req.Workload != "boolmin" || req.Spec != "perfect" || req.Mode != "timing" {
			t.Fatalf("decoded %+v", req)
		}
	})
	t.Run("unknown field rejected", func(t *testing.T) {
		_, err := decode(t, `{"workload":"boolmin","spec":"perfect","evil":1}`, 0)
		re := reqErr(t, err, 400, "bad_json")
		if !strings.Contains(re.Message, "evil") {
			t.Fatalf("message should name the unknown field: %s", re.Message)
		}
	})
	t.Run("oversized body is 413", func(t *testing.T) {
		big := `{"workload":"boolmin","spec":"` + strings.Repeat("x", 256) + `"}`
		_, err := decode(t, big, 32)
		reqErr(t, err, 413, "body_too_large")
	})
	t.Run("trailing garbage rejected", func(t *testing.T) {
		_, err := decode(t, `{"workload":"boolmin","spec":"perfect"} {"again":true}`, 0)
		reqErr(t, err, 400, "trailing_data")
	})
	t.Run("malformed json", func(t *testing.T) {
		_, err := decode(t, `{"workload":`, 0)
		reqErr(t, err, 400, "bad_json")
	})
	t.Run("wrong field type", func(t *testing.T) {
		_, err := decode(t, `{"workload":"boolmin","spec":"perfect","steps":"many"}`, 0)
		reqErr(t, err, 400, "bad_json")
	})
}

func TestValidateEvalRequest(t *testing.T) {
	const exitSpec = "path:d7-o5-l6-c6-f3:leh2"
	cases := []struct {
		name   string
		req    EvalRequest
		status int
		code   string
	}{
		{"missing workload", EvalRequest{Spec: exitSpec}, 400, "missing_workload"},
		{"unknown workload", EvalRequest{Workload: "specint", Spec: exitSpec}, 400, "unknown_workload"},
		{"missing spec", EvalRequest{Workload: "boolmin"}, 400, "missing_spec"},
		{"unparsable spec", EvalRequest{Workload: "boolmin", Spec: "bogus"}, 400, "bad_spec"},
		{"ideal depth beyond MaxHistoryDepth", EvalRequest{Workload: "boolmin", Spec: "ipath:d12:leh2"}, 400, "bad_spec"},
		{"GLOBAL current bits beyond an address", EvalRequest{Workload: "boolmin", Spec: "global:d7-c64-i14:leh2"}, 400, "bad_spec"},
		{"PER task bits beyond an address", EvalRequest{Workload: "boolmin", Spec: "per:d7-h12-t99-i14:leh2"}, 400, "bad_spec"},
		{"noncanonical spec", EvalRequest{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:LEH-2bit"}, 400, "noncanonical_spec"},
		{"bad mode", EvalRequest{Workload: "boolmin", Spec: exitSpec, Mode: "yolo"}, 400, "bad_mode"},
		{"mode/spec mismatch", EvalRequest{Workload: "boolmin", Spec: "cttb:d7-o4-l4-c5-f3", Mode: "exit"}, 400, "mode_mismatch"},
		{"perfect outside timing", EvalRequest{Workload: "boolmin", Spec: "perfect", Mode: "task"}, 400, "mode_mismatch"},
		{"spec target replay", EvalRequest{Workload: "boolmin", Spec: "cttb:d7-o4-l4-c5-f3:spec"}, 400, "mode_mismatch"},
		{"negative steps", EvalRequest{Workload: "boolmin", Spec: exitSpec, Steps: -1}, 400, "bad_steps"},
		{"negative timing steps", EvalRequest{Workload: "boolmin", Spec: "perfect", Mode: "timing", TimingSteps: -1}, 400, "bad_timing_steps"},
		{"negative timeout", EvalRequest{Workload: "boolmin", Spec: exitSpec, TimeoutMS: -1}, 400, "bad_timeout"},
		{"steps on a timing run", EvalRequest{Workload: "boolmin", Spec: "perfect", Mode: "timing", Steps: 100}, 400, "bad_steps"},
		{"timing_steps on a replay run", EvalRequest{Workload: "boolmin", Spec: exitSpec, TimingSteps: 100}, 400, "bad_timing_steps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ValidateEvalRequest(&c.req)
			reqErr(t, err, c.status, c.code)
		})
	}

	t.Run("noncanonical hint names the canonical form", func(t *testing.T) {
		_, err := ValidateEvalRequest(&EvalRequest{Workload: "boolmin", Spec: "path:d7-o5-l6-c6-f3:LEH-2bit"})
		re := reqErr(t, err, 400, "noncanonical_spec")
		if !strings.Contains(re.Message, `"path:d7-o5-l6-c6-f3:leh2"`) {
			t.Fatalf("hint should quote the canonical spelling: %s", re.Message)
		}
	})

	t.Run("canonical exit cell", func(t *testing.T) {
		cell, err := ValidateEvalRequest(&EvalRequest{Workload: "boolmin", Spec: exitSpec, Steps: 2000})
		if err != nil {
			t.Fatalf("validate: %v", err)
		}
		if cell.Mode != engine.ModeExit {
			t.Fatalf("mode = %v, want exit (auto-resolved)", cell.Mode)
		}
		want := "boolmin/path:d7-o5-l6-c6-f3:leh2@mode=exit,steps=2000,timing=0"
		if got := cell.Key(); got != want {
			t.Fatalf("key = %q, want %q", got, want)
		}
	})

	t.Run("auto mode resolves per class", func(t *testing.T) {
		for spec, want := range map[string]engine.Mode{
			exitSpec:              engine.ModeExit,
			"cttb:d7-o4-l4-c5-f3": engine.ModeTarget,
			"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3": engine.ModeTask,
			"perfect": engine.ModeTiming,
		} {
			cell, err := ValidateEvalRequest(&EvalRequest{Workload: "exprc", Spec: spec})
			if err != nil {
				t.Fatalf("validate %q: %v", spec, err)
			}
			if cell.Mode != want {
				t.Fatalf("spec %q resolved to %v, want %v", spec, cell.Mode, want)
			}
		}
	})
}

// TestValidateAgreesWithEngine holds request validation to the engine
// over a spec × mode × step-budget matrix: ValidateEvalRequest accepts
// exactly the cells for which engine.Do returns no *engine.UnsupportedError
// or *engine.BudgetError, maps each refusal to its wire code, and every
// accepted cell runs without error. A refusal the validator misses
// would take a pool slot and come back as a 500 for a client error.
func TestValidateAgreesWithEngine(t *testing.T) {
	const steps, timingSteps = 300, 300
	specs := append(experiments.AllSpecs(),
		"cttb:d7-o4-l4-c5-f3:spec",
		"icttb:d7:spec",
		"perfect",
		"perfect:spec:rlat8",
		"path:d7-o5-l6-c6-f3:leh2",
	)
	// Each budget set is applied to a cell whose mode is timing (or
	// resolves to it) and to one whose mode is a replay.
	type budget struct{ steps, timing int }
	budgets := []struct {
		name           string
		timing, replay budget
	}{
		{"fitting", budget{0, timingSteps}, budget{steps, 0}},
		{"swapped", budget{steps, 0}, budget{0, timingSteps}},
		{"negative steps", budget{-1, timingSteps}, budget{-1, 0}},
		{"negative timing_steps", budget{0, -1}, budget{steps, -1}},
	}
	seen := map[string]bool{}
	modes := []engine.Mode{engine.ModeAuto, engine.ModeExit, engine.ModeTarget, engine.ModeTask, engine.ModeTiming}
	accepted, refused := 0, 0
	for _, s := range specs {
		sp := engine.MustParse(s)
		spec := sp.String()
		if seen[spec] {
			continue
		}
		seen[spec] = true
		for _, mode := range modes {
			for _, b := range budgets {
				bud := b.replay
				if mode == engine.ModeTiming || (mode == engine.ModeAuto && sp.Class() == engine.ClassPerfect) {
					bud = b.timing
				}
				run := engine.Run{Workload: "boolmin", Spec: spec, Mode: mode, MaxSteps: bud.steps, TimingSteps: bud.timing}
				req := EvalRequest{Workload: run.Workload, Spec: spec, Mode: mode.String(), Steps: bud.steps, TimingSteps: bud.timing}
				res := engine.Do(run)
				var ue *engine.UnsupportedError
				var be *engine.BudgetError
				wantCode := ""
				switch {
				case errors.As(res.Err, &ue):
					wantCode = "mode_mismatch"
				case errors.As(res.Err, &be) && be.Budget == "TimingSteps":
					wantCode = "bad_timing_steps"
				case errors.As(res.Err, &be):
					wantCode = "bad_steps"
				}
				cell, err := ValidateEvalRequest(&req)
				at := fmt.Sprintf("%s mode=%s %s budgets", spec, mode, b.name)
				switch {
				case err == nil && wantCode != "":
					t.Errorf("%s: validation accepts a cell the engine refuses: %v", at, res.Err)
				case err == nil && res.Err != nil:
					t.Errorf("%s: accepted cell fails to run: %v", at, res.Err)
				case err == nil && cell.Mode != res.Mode:
					t.Errorf("%s: cell mode %s, engine ran %s", at, cell.Mode, res.Mode)
				case err == nil:
					accepted++
				case wantCode == "":
					t.Errorf("%s: validation refuses (%v) a cell the engine runs (err %v)", at, err, res.Err)
				default:
					refused++
					if re, ok := err.(*RequestError); !ok || re.Code != wantCode {
						t.Errorf("%s: refusal %v, want %s", at, err, wantCode)
					}
				}
			}
		}
	}
	t.Logf("%d specs: %d cells accepted, %d refused", len(seen), accepted, refused)
	if accepted == 0 || refused == 0 {
		t.Fatalf("degenerate matrix: %d accepted, %d refused", accepted, refused)
	}
}
