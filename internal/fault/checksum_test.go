package fault_test

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"multiscalar/internal/fault"
	"multiscalar/internal/trace"
)

// TestChecksumMatchesStepRecords pins Checksum's definition: FNV-64a
// over one 9-byte record per step (task, exit, target, little-endian),
// computed here from the materialized steps. Any changed step changes
// the sum; the changed steps are encoded without a graph, since a
// changed target need not keep the step rule.
func TestChecksumMatchesStepRecords(t *testing.T) {
	c := testTrace(t, "exprc", 3000)
	sum := func(steps []trace.Step) uint64 {
		h := fnv.New64a()
		for _, s := range steps {
			var rec [9]byte
			binary.LittleEndian.PutUint32(rec[0:], uint32(s.Task))
			rec[4] = byte(s.Exit)
			binary.LittleEndian.PutUint32(rec[5:], uint32(s.Target))
			h.Write(rec[:])
		}
		return h.Sum64()
	}
	tr := c.Materialize()
	if got, want := fault.Checksum(c), sum(tr.Steps); got != want {
		t.Fatalf("Checksum = %#x, want %#x", got, want)
	}
	tr.Steps[100].Target = tr.Steps[0].Task
	e := trace.NewEncoder(nil)
	if err := e.Append(tr.Steps); err != nil {
		t.Fatal(err)
	}
	if fault.Checksum(e.Finish()) == fault.Checksum(c) {
		t.Fatal("a changed target left the checksum unchanged")
	}
}

func TestPanicErrorFormat(t *testing.T) {
	e := &fault.PanicError{Value: "boom"}
	if got := e.Error(); got != "panic: boom" {
		t.Fatalf("Error() = %q", got)
	}
	e.Stack = "goroutine 1 [running]:"
	if got := e.Error(); !strings.Contains(got, "boom") || !strings.Contains(got, "goroutine") {
		t.Fatalf("Error() = %q", got)
	}
}
