package core

import (
	"testing"
	"testing/quick"

	"multiscalar/internal/isa"
)

func TestPathHistoryOrder(t *testing.T) {
	var h PathHistory
	h.Push(10)
	h.Push(20)
	h.Push(30)
	if h.At(1) != 30 || h.At(2) != 20 || h.At(3) != 10 {
		t.Fatalf("history order wrong: %d %d %d", h.At(1), h.At(2), h.At(3))
	}
	if h.At(4) != 0 {
		t.Fatalf("unpushed history should read 0, got %d", h.At(4))
	}
}

func TestPathHistoryWraps(t *testing.T) {
	var h PathHistory
	for i := 1; i <= 3*MaxHistoryDepth; i++ {
		h.Push(isa.Addr(i))
	}
	for i := 1; i <= MaxHistoryDepth; i++ {
		want := isa.Addr(3*MaxHistoryDepth - i + 1)
		if got := h.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestPathHistoryReset(t *testing.T) {
	var h PathHistory
	h.Push(42)
	h.Reset()
	if h.At(1) != 0 {
		t.Fatalf("reset history should read 0")
	}
}

// Property: MakePathKey is injective over (current, history prefix) for
// 16-bit addresses — the alias-freedom guarantee of the ideal predictors.
func TestPathKeyInjective(t *testing.T) {
	f := func(a, b [8]uint16, curA, curB uint16) bool {
		var ha, hb PathHistory
		for i := len(a) - 1; i >= 0; i-- {
			ha.Push(isa.Addr(a[i]))
			hb.Push(isa.Addr(b[i]))
		}
		ka := MakePathKey(&ha, isa.Addr(curA), 8)
		kb := MakePathKey(&hb, isa.Addr(curB), 8)
		same := curA == curB && a == b
		return (ka == kb) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// At depth 11 the history fills all twelve 16-bit fields, so every key
// bit is an address bit: two paths that differ only in the 11th-oldest
// task (here in its address bit 8) must get different keys.
func TestPathKeyDepth11Exact(t *testing.T) {
	keys := make(map[PathKey]isa.Addr)
	for _, oldest := range []isa.Addr{0x000, 0x100, 0x200, 0x800, 0xffff} {
		var h PathHistory
		h.Push(oldest)
		for i := 0; i < 10; i++ {
			h.Push(isa.Addr(i + 1))
		}
		k := MakePathKey(&h, 7, MaxHistoryDepth)
		if prev, ok := keys[k]; ok {
			t.Fatalf("11th-oldest tasks @%#x and @%#x share a depth-11 key", prev, oldest)
		}
		keys[k] = oldest
	}
}

// Every pathReg key equals MakePathKey over the same history at every
// depth, and unpush(oldest()) undoes a push.
func TestPathRegMatchesMakePathKey(t *testing.T) {
	r := newRNG(9)
	for depth := 0; depth <= MaxHistoryDepth; depth++ {
		var h PathHistory
		reg := newPathReg(depth)
		for step := 0; step < 200; step++ {
			cur := isa.Addr(r.next())
			if got, k := reg.key(cur), MakePathKey(&h, cur, depth); got != (ctxKey{k[0], k[1], k[2]}) {
				t.Fatalf("depth %d step %d: pathReg key %x, MakePathKey %x", depth, step, got, k)
			}
			before, oldest := reg, reg.oldest()
			reg.push(cur)
			undone := reg
			undone.unpush(oldest)
			if undone != before {
				t.Fatalf("depth %d step %d: unpush gives %x, want %x", depth, step, undone.k, before.k)
			}
			h.Push(cur)
		}
	}
}

func TestExitHistoryPush(t *testing.T) {
	var h ExitHistory
	h = h.Push(3, 2)
	h = h.Push(1, 2)
	if h != 0b1101 {
		t.Fatalf("history = %b, want 1101", h)
	}
	h = h.Push(2, 2) // depth 2 keeps only last two entries
	if h != 0b0110 {
		t.Fatalf("history = %b, want 0110", h)
	}
	if got := h.Push(3, 0); got != 0 {
		t.Fatalf("depth-0 history must stay empty, got %b", got)
	}
}

// The slotMap index against a plain map: lookups, finds and drops of
// random slots (the LIFO drops undo makes and the out-of-order ones an
// unlogged create above a dropped slot would cause) across index growth.
func TestSlotMapMatchesMap(t *testing.T) {
	for width := 1; width <= 3; width++ {
		testSlotMapMatchesMap(t, width)
	}
}

func testSlotMapMatchesMap(t *testing.T, width int) {
	r := newRNG(5)
	m := newSlotMap(width)
	want := make(map[ctxKey]uint32)
	key := func() ctxKey {
		k := [3]uint64{uint64(r.intn(4096)), uint64(r.intn(4)), uint64(r.intn(4))}
		clear(k[width:])
		return ctxKey{k[0], k[1], k[2]}
	}
	for step := 0; step < 20000; step++ {
		k := key()
		switch op := r.intn(8); {
		case op < 5:
			idx, created := m.lookup(k)
			if w, ok := want[k]; ok != !created || (ok && w != idx) {
				t.Fatalf("width %d step %d: lookup %x = (%d, %v), want slot %d, present %v", width, step, k, idx, created, w, ok)
			}
			want[k] = idx
		case op < 7:
			idx, ok := m.find(k)
			if w, wok := want[k]; ok != wok || (ok && w != idx) {
				t.Fatalf("width %d step %d: find %x = (%d, %v), want (%d, %v)", width, step, k, idx, ok, w, wok)
			}
		case len(want) > 0:
			idx := uint32(m.size() - 1) // newest slot, or a random live one
			if r.intn(2) == 0 {
				idx = uint32(r.intn(m.size()))
			}
			if w, ok := want[m.key(idx)]; !ok || w != idx {
				continue // already dropped
			}
			delete(want, m.key(idx))
			if last := m.drop(idx); last != (int(idx) == m.size()) {
				t.Fatalf("step %d: drop(%d) reports last=%v with %d slots left", step, idx, last, m.size())
			}
		}
		if m.contexts() != len(want) {
			t.Fatalf("step %d: %d contexts, want %d", step, m.contexts(), len(want))
		}
	}
	for k, w := range want {
		if idx, ok := m.find(k); !ok || idx != w {
			t.Fatalf("find %x = (%d, %v), want %d", k, idx, ok, w)
		}
	}
}
