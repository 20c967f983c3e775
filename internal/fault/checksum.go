package fault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"multiscalar/internal/trace"
)

// PanicError is a panic converted to a structured error by the engine or
// the resilient experiment runner.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time (may be empty).
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Stack != "" {
		return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
	}
	return fmt.Sprintf("panic: %v", e.Value)
}

// Checksum fingerprints a trace's prediction-relevant contents: one
// 9-byte record per step (task address, exit, target address — zero
// after a halt), read through the columns and their dictionary. The
// engine's faulted runs compare checksums before and after a replay to
// prove the injector never wrote through to shared trace state.
func Checksum(c *trace.Columnar) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	cur := c.Blocks()
	// A cursor over resident columns never returns an error.
	for b, _ := cur.NextBlock(); b != nil; b, _ = cur.NextBlock() {
		entries := b.Dict.Entries
		for i := 0; i < b.N; i++ {
			exit, target := b.Exits[i], uint32(0)
			if exit != trace.HaltExit {
				target = uint32(entries[b.TargetIdx[i]].Addr)
			}
			binary.LittleEndian.PutUint32(buf[0:], uint32(entries[b.TaskIdx[i]].Addr))
			buf[4] = byte(exit)
			binary.LittleEndian.PutUint32(buf[5:], target)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
