package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a live completion reporter for multi-experiment batches:
// each Step prints one "done/total" line with the last item's duration
// and an ETA extrapolated from throughput so far. It writes to a side
// channel (stderr in the CLIs) — never to the experiment output — so
// the byte-invariance contract is untouched. Safe for concurrent use.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	total int
	done  int
	start time.Time
	now   func() time.Time // test hook
}

// NewProgress returns a reporter for total items writing lines prefixed
// with label. A nil writer or non-positive total disables reporting
// (every method becomes a no-op), so callers can pass it around
// unconditionally.
func NewProgress(w io.Writer, label string, total int) *Progress {
	p := &Progress{w: w, label: label, total: total, now: time.Now}
	p.start = p.now()
	return p
}

// enabled reports whether the reporter actually prints.
func (p *Progress) enabled() bool { return p != nil && p.w != nil && p.total > 0 }

// Step records one completed item and prints the progress line.
func (p *Progress) Step(name string, d time.Duration) {
	if !p.enabled() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	elapsed := p.now().Sub(p.start)
	line := fmt.Sprintf("%s: %d/%d done (%s in %v)", p.label, p.done, p.total, name, d.Round(time.Millisecond))
	if p.done < p.total && p.done > 0 {
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		line += fmt.Sprintf(", eta %v", eta.Round(time.Second))
	}
	fmt.Fprintln(p.w, line)
}
