package engine

import (
	"multiscalar/internal/obs"
	"multiscalar/internal/trace"
)

// progressSource forwards a block source while crediting each delivered
// block's step count to a RunStatus. The accounting is one atomic add
// per block (4096 steps on the columnar path), so progress reporting is
// invisible in replay throughput; the blocks themselves pass through
// untouched, keeping the replay's call sequence — and therefore its
// results — byte-identical with or without a status attached.
type progressSource struct {
	src trace.BlockSource
	st  *obs.RunStatus
}

// NextBlock implements trace.BlockSource.
func (p *progressSource) NextBlock() (*trace.Block, error) {
	b, err := p.src.NextBlock()
	if b != nil {
		p.st.AddSteps(int64(b.N))
	}
	return b, err
}

// WithProgress wraps src so every delivered block advances st by its
// step count. A nil status returns src unchanged — the unobserved path
// pays nothing, not even the wrapper's indirection.
func WithProgress(src trace.BlockSource, st *obs.RunStatus) trace.BlockSource {
	if st == nil {
		return src
	}
	return &progressSource{src: src, st: st}
}
