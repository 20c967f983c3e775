package mserve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"multiscalar/internal/engine"
)

// FuzzEvalDecode drives raw bytes through the full untrusted-input path —
// hardened decode, spec parse, validation — and asserts the no-panic
// invariant plus the canonicalization contract: every accepted request
// yields a cell whose spec is the Parse∘String fixed point and whose key
// is stable under re-validation. Seeds mix well-formed requests over the
// spec grammar corpus with the classic attack shapes (unknown fields,
// trailing values, deep garbage, non-canonical spellings).
func FuzzEvalDecode(f *testing.F) {
	specs := []string{
		"perfect",
		"path:d7-o5-l6-c6-f3:leh2",
		"path:d0-o0-l0-c14:leh2",
		"path:d2-o4-l5-c5:vc2rand:seed7",
		"global:d7-c14-i14:leh2",
		"per:d7-h12-t14-i14:leh2",
		"ipath:d7:leh2",
		"iglobal:d7:le",
		"iper:d7:vc3mru",
		"cttb:d7-o4-l4-c5-f3",
		"icttb:d7",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3",
		"composed:global:d7-c14-i14:leh2:ras32:icttb:d7",
		// Parse-rejected and non-canonical spellings.
		"path:d7-o5-l6-c6-f3:LEH-2bit",
		"path:o5-d7-l6-c6:leh2",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras0:cttb:d7-o4-l4-c5-f3",
		"bogus", "", "   ",
		// Out-of-range integers: each must be a 400, not a panic or an
		// allocation sized by the request.
		"ipath:d12:leh2",
		"icttb:d12",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras4097:cttb:d7-o4-l4-c5-f3",
		"composed:path:d7-o5-l6-c6-f3:leh2:ras99999999999999999999",
		"path:d7-o5-l6-c6-f3:leh2:lat4097",
		"path:d7-o5-l6-c6-f3:leh2:dlat4611686018427387904:spec",
		"path:d7-o5-l6-c6-f3:leh2:seed4294967296",
		// Parses, but the engine refuses it: a 400, never a pool slot.
		"cttb:d7-o4-l4-c5-f3:spec",
	}
	for _, sp := range specs {
		f.Add(`{"workload":"boolmin","spec":"` + sp + `"}`)
		f.Add(`{"workload":"exprc","spec":"` + sp + `","mode":"timing","timing_steps":100}`)
	}
	f.Add(`{"workload":"boolmin","spec":"perfect","evil":true}`)
	f.Add(`{"workload":"boolmin","spec":"perfect"} {"second":1}`)
	f.Add(`{"workload":"boolmin","spec":"perfect","steps":-1}`)
	f.Add(`{"workload":"boolmin","spec":"perfect","timeout_ms":9999999}`)
	f.Add(`{"workload":`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Add(strings.Repeat("[", 512))
	f.Add(`{"workload":"` + strings.Repeat("w", 200) + `","spec":"perfect"}`)

	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest("POST", "/eval", strings.NewReader(body))
		w := httptest.NewRecorder()
		req, err := DecodeEvalRequest(w, r, DefaultMaxBody)
		if err != nil {
			if _, ok := err.(*RequestError); !ok {
				t.Fatalf("decode error is %T, want *RequestError: %v", err, err)
			}
			return
		}
		cell, err := ValidateEvalRequest(req)
		if err != nil {
			if _, ok := err.(*RequestError); !ok {
				t.Fatalf("validate error is %T, want *RequestError: %v", err, err)
			}
			return
		}
		// Accepted: the engine admits the cell, and it must be
		// self-canonical — re-validating a
		// request built from the cell reproduces the identical cell/key.
		again, err := ValidateEvalRequest(&EvalRequest{
			Workload: cell.Workload, Spec: cell.Spec, Mode: cell.Mode.String(),
			Steps: cell.Steps, TimingSteps: cell.TimingSteps,
		})
		if err != nil {
			t.Fatalf("accepted cell %q does not re-validate: %v", cell.Key(), err)
		}
		if again.Key() != cell.Key() {
			t.Fatalf("key not stable: %q -> %q", cell.Key(), again.Key())
		}
		if _, _, err := engine.Resolve(cell.Run()); err != nil {
			t.Fatalf("accepted cell %q is refused by the engine: %v", cell.Key(), err)
		}
	})
}
