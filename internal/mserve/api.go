// Package mserve is the prediction-as-a-service daemon: a hardened
// HTTP/JSON front end over the evaluation engine. It accepts grid cells
// (workload + canonical predictor spec), runs them on a shared
// engine.Pool with the process-wide trace cache as the hot cache, and
// wraps the whole thing in a production robustness envelope — admission
// control with load shedding, per-request deadlines, panic isolation,
// the pool's run memo (hits and joins of identical cells), and graceful
// drain.
//
// The determinism contract carries over from the engine: a response body
// is rendered purely from the engine.Result, so the bytes a client gets
// are identical to what a direct mbench/engine run of the same cell
// would render — which is what makes the memo a correctness proof
// rather than an approximation.
package mserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
	"multiscalar/internal/isa"
	"multiscalar/internal/workload"
)

// DefaultMaxBody caps /eval request bodies. Requests are tiny (a
// workload name and a spec string); anything larger is garbage or abuse.
const DefaultMaxBody = 1 << 16

// EvalRequest is the /eval request body. Unknown fields are rejected
// (DisallowUnknownFields), the body is size-capped, and the spec must be
// in canonical form — untrusted input cannot smuggle two spellings of
// the same cell past the memo key.
type EvalRequest struct {
	// Workload is the workload short name ("exprc", "boolmin", ...).
	Workload string `json:"workload"`
	// Spec is the canonical predictor spec (engine.Parse fixed point).
	Spec string `json:"spec"`
	// Mode optionally overrides the spec-derived evaluation mode:
	// "auto" (or empty), "exit", "target", "task", "timing".
	Mode string `json:"mode,omitempty"`
	// Steps truncates the replay trace (0 = full; replay modes only).
	Steps int `json:"steps,omitempty"`
	// TimingSteps bounds a timing run (timing mode only; 0 = default).
	TimingSteps int `json:"timing_steps,omitempty"`
	// TimeoutMS is the client's deadline for this request in
	// milliseconds (0 = the server default; clamped to the server max).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Cell is a validated, canonicalized evaluation cell — the unit the
// pool's run memo keys on.
type Cell struct {
	// Workload is the validated workload name.
	Workload string
	// Spec is the canonical spec string.
	Spec string
	// Mode is the resolved (never Auto) evaluation mode.
	Mode engine.Mode
	// Steps is the trace truncation (replay modes; 0 in timing mode).
	Steps int
	// TimingSteps is the timing budget (timing mode; 0 in replay modes).
	TimingSteps int
}

// Key renders the cell's memo key (engine.Key of its run): the
// canonical spec plus the resolved execution config, so cosmetic
// respellings can never mint distinct entries. Validation guarantees
// one cell ⇔ one key ⇔ one result; a cell the engine refuses has no key
// ("").
func (c Cell) Key() string {
	k, _ := engine.Key(c.Run())
	return k
}

// Run converts the cell to the engine's run form.
func (c Cell) Run() engine.Run {
	return engine.Run{
		Workload:    c.Workload,
		Spec:        c.Spec,
		Mode:        c.Mode,
		MaxSteps:    c.Steps,
		TimingSteps: c.TimingSteps,
	}
}

// RequestError is a client-side validation failure (HTTP 4xx), as
// opposed to an evaluation failure (5xx).
type RequestError struct {
	// Status is the HTTP status to answer with.
	Status int
	// Code is a stable machine-readable error code.
	Code string
	// Message is the human-readable detail.
	Message string
}

// Error implements error.
func (e *RequestError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func badRequest(code, format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// DecodeEvalRequest reads and hardens one /eval body: size-capped
// (MaxBytesReader), strict fields (DisallowUnknownFields), exactly one
// JSON value, no trailing garbage. w is needed so MaxBytesReader can
// close the connection on oversized bodies; maxBody <= 0 means
// DefaultMaxBody.
func DecodeEvalRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*EvalRequest, error) {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	body := http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req EvalRequest
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, &RequestError{
				Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit),
			}
		}
		return nil, badRequest("bad_json", "decoding request body: %v", err)
	}
	// Exactly one JSON value: trailing garbage means a malformed (or
	// smuggled) request, not a second request.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, badRequest("trailing_data", "request body holds more than one JSON value")
	}
	return &req, nil
}

// ValidateEvalRequest turns a decoded request into a canonical Cell or a
// structured RequestError. Every accepted request is fully canonical:
// the workload exists, engine.Resolve admits the spec, mode and step
// budgets (the engine's own admission check, so a cell validation
// accepts is a cell the engine runs, and a budget is present only where
// it is meaningful), and the spec string is the engine's canonical form
// (Parse∘String fixed point, checked by round-trip) — so equal cells,
// and only equal cells, share a key.
func ValidateEvalRequest(req *EvalRequest) (Cell, error) {
	var c Cell
	if strings.TrimSpace(req.Workload) == "" {
		return c, badRequest("missing_workload", "workload is required")
	}
	if _, err := workload.ByName(req.Workload); err != nil {
		return c, badRequest("unknown_workload", "%v", err)
	}
	if strings.TrimSpace(req.Spec) == "" {
		return c, badRequest("missing_spec", "spec is required")
	}
	m, err := engine.ParseMode(req.Mode)
	if err != nil {
		return c, badRequest("bad_mode", "%v", err)
	}
	// Refused combinations and step budgets are a 400 here instead of
	// wasting an admission slot to fail inside the pool.
	sp, mode, err := engine.Resolve(engine.Run{Workload: req.Workload, Spec: req.Spec, Mode: m,
		MaxSteps: req.Steps, TimingSteps: req.TimingSteps})
	if err != nil {
		var ue *engine.UnsupportedError
		var be *engine.BudgetError
		switch {
		case errors.As(err, &ue):
			return c, badRequest("mode_mismatch", "%v", err)
		case errors.As(err, &be):
			code := "bad_steps"
			if be.Budget == "TimingSteps" {
				code = "bad_timing_steps"
			}
			return c, badRequest(code, "%v", err)
		}
		return c, badRequest("bad_spec", "%v", err)
	}
	if canonical := sp.String(); canonical != req.Spec {
		// Round-trip check: accepting non-canonical spellings would let
		// equivalent requests mint distinct memo keys. Tell the client
		// the exact string to send instead.
		return c, badRequest("noncanonical_spec",
			"spec %q is not canonical; send %q", req.Spec, canonical)
	}
	if req.TimeoutMS < 0 {
		return c, badRequest("bad_timeout", "timeout_ms must be >= 0")
	}

	c = Cell{
		Workload:    req.Workload,
		Spec:        sp.String(),
		Mode:        mode,
		Steps:       req.Steps,
		TimingSteps: req.TimingSteps,
	}
	return c, nil
}

// ExitJSON is the exit-replay result body.
type ExitJSON struct {
	Steps    int     `json:"steps"`
	Misses   int     `json:"misses"`
	States   int     `json:"states"`
	MissRate float64 `json:"miss_rate"`
}

// TargetJSON is the indirect-target result body.
type TargetJSON struct {
	Steps    int     `json:"steps"`
	Misses   int     `json:"misses"`
	States   int     `json:"states"`
	MissRate float64 `json:"miss_rate"`
}

// KindJSON is one control-kind row of a task result.
type KindJSON struct {
	Kind   string `json:"kind"`
	Steps  int    `json:"steps"`
	Misses int    `json:"misses"`
}

// TaskJSON is the task-replay result body.
type TaskJSON struct {
	Steps        int        `json:"steps"`
	ExitMisses   int        `json:"exit_misses"`
	Misses       int        `json:"misses"`
	MissRate     float64    `json:"miss_rate"`
	ExitMissRate float64    `json:"exit_miss_rate"`
	ByKind       []KindJSON `json:"by_kind,omitempty"`
}

// TimingJSON is the ring timing-model result body.
type TimingJSON struct {
	Cycles           uint64  `json:"cycles"`
	Instrs           uint64  `json:"instrs"`
	Tasks            int     `json:"tasks"`
	TaskMispredicts  int     `json:"task_mispredicts"`
	IntraMispredicts uint64  `json:"intra_mispredicts"`
	IPC              float64 `json:"ipc"`
	TaskMissRate     float64 `json:"task_miss_rate"`
}

// ResultJSON is the mode-specific payload of a successful evaluation —
// exactly one field is set, matching the cell's mode.
type ResultJSON struct {
	Exit   *ExitJSON   `json:"exit,omitempty"`
	Target *TargetJSON `json:"target,omitempty"`
	Task   *TaskJSON   `json:"task,omitempty"`
	Timing *TimingJSON `json:"timing,omitempty"`
}

// EvalResponse is the /eval success body. Everything in it is a pure
// function of the cell and its engine.Result; volatile serving facts
// (cache hit/miss/join, timings) travel in headers so two answers for
// the same cell are byte-identical no matter which path served them.
type EvalResponse struct {
	Key         string     `json:"key"`
	Workload    string     `json:"workload"`
	Spec        string     `json:"spec"`
	Mode        string     `json:"mode"`
	Steps       int        `json:"steps"`
	TimingSteps int        `json:"timing_steps"`
	Result      ResultJSON `json:"result"`
}

// RenderResult converts an engine result into the wire payload, in a
// fixed field order with ByKind rows sorted by kind name — fully
// deterministic bytes under encoding/json.
func RenderResult(mode engine.Mode, res engine.Result) ResultJSON {
	var out ResultJSON
	switch mode {
	case engine.ModeExit:
		r := res.Exit
		out.Exit = &ExitJSON{Steps: r.Steps, Misses: r.Misses, States: r.States, MissRate: r.MissRate()}
	case engine.ModeTarget:
		r := res.Target
		out.Target = &TargetJSON{Steps: r.Steps, Misses: r.Misses, States: r.States, MissRate: r.MissRate()}
	case engine.ModeTask:
		r := res.Task
		tj := &TaskJSON{
			Steps: r.Steps, ExitMisses: r.ExitMisses, Misses: r.Misses,
			MissRate: r.MissRate(), ExitMissRate: r.ExitMissRate(),
		}
		for kind, km := range r.ByKind {
			if km.Steps > 0 {
				tj.ByKind = append(tj.ByKind, KindJSON{Kind: isa.ControlKind(kind).String(), Steps: km.Steps, Misses: km.Misses})
			}
		}
		sort.Slice(tj.ByKind, func(i, j int) bool { return tj.ByKind[i].Kind < tj.ByKind[j].Kind })
		out.Task = tj
	case engine.ModeTiming:
		r := res.Timing
		out.Timing = &TimingJSON{
			Cycles: r.Cycles, Instrs: r.Instrs, Tasks: r.Tasks,
			TaskMispredicts: r.TaskMispredicts, IntraMispredicts: r.IntraMispredicts,
			IPC: r.IPC(), TaskMissRate: r.TaskMissRate(),
		}
	}
	return out
}

// RenderResponse builds the full deterministic success body for a cell.
func RenderResponse(c Cell, res engine.Result) *EvalResponse {
	return &EvalResponse{
		Key:         c.Key(),
		Workload:    c.Workload,
		Spec:        c.Spec,
		Mode:        c.Mode.String(),
		Steps:       c.Steps,
		TimingSteps: c.TimingSteps,
		Result:      RenderResult(c.Mode, res),
	}
}

// ErrorBody is the structured error payload of every non-2xx answer.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse wraps ErrorBody at the top level.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// errorCodeFor classifies an evaluation-side failure. Panics inside a
// predictor arrive as *fault.PanicError (the engine's panic isolation);
// everything else is a plain run failure.
func errorCodeFor(err error) (status int, code string) {
	var pe *fault.PanicError
	var te *engine.RunTimeoutError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "panic"
	case errors.As(err, &te):
		return http.StatusGatewayTimeout, "run_timeout"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "deadline"
	default:
		return http.StatusInternalServerError, "run_failed"
	}
}
