package fault

import (
	"fmt"

	"multiscalar/internal/core"
	"multiscalar/internal/obs"
	"multiscalar/internal/tfg"
)

// Injector activity metrics, aggregated across every injector in the
// process (the per-run Stats stay the source of truth for results;
// these only feed the observability snapshot).
var (
	obsRolled   = obs.Default().Counter("fault.inject.rolled")
	obsInjected = obs.Default().Counter("fault.inject.injected")
)

// The injector reaches predictor components through the accessors the
// composed predictors already export (HeaderPredictor.Exit/RAS/Buffer,
// CTTBOnly.Buffer) and corrupts state through the structural hook
// interfaces below, implemented by the core types. A predictor that does
// not expose a hook simply never receives that fault class; the per-kind
// stats make the difference between "rolled but nothing to corrupt" and
// "injected" visible.

// counterCorrupter is the automaton-state corruption hook
// (core.PathExit, core.GlobalExit, core.PerExit).
type counterCorrupter interface {
	CorruptCounter(rnd func(int) int) bool
}

// historyCorrupter is the history-register corruption hook
// (core.PathExit, core.GlobalExit, core.PerExit, core.CTTB).
type historyCorrupter interface {
	CorruptHistory(rnd func(int) int) bool
}

// entryCorrupter is the target-buffer corruption hook (core.CTTB).
type entryCorrupter interface {
	CorruptEntry(rnd func(int) int) bool
}

// exitHolder exposes a composed predictor's exit predictor.
type exitHolder interface {
	Exit() core.ExitPredictor
}

// rasHolder exposes a composed predictor's return address stack.
type rasHolder interface {
	RAS() *core.RAS
}

// bufferHolder exposes a composed predictor's target buffer.
type bufferHolder interface {
	Buffer() core.TargetBuffer
}

// KindStats counts one fault kind's activity.
type KindStats struct {
	// Rolled is how many injection attempts the rate selected.
	Rolled int
	// Injected is how many attempts actually corrupted state (an attempt
	// misses when the wrapped predictor exposes no such state, e.g. an
	// empty RAS or an untouched PHT).
	Injected int
}

// Stats aggregates an injector's activity per fault kind.
type Stats struct {
	Kind [NumKinds]KindStats
}

// TotalInjected sums the injected faults across kinds.
func (s Stats) TotalInjected() int {
	n := 0
	for _, k := range s.Kind {
		n += k.Injected
	}
	return n
}

// String renders the non-zero counters ("ctr 12/12, ras 3/5" as
// injected/rolled) or "none".
func (s Stats) String() string {
	out := ""
	for k, ks := range s.Kind {
		if ks.Rolled == 0 {
			continue
		}
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s %d/%d", Kind(k), ks.Injected, ks.Rolled)
	}
	if out == "" {
		return "none"
	}
	return out
}

// Injector wraps a task predictor with seeded fault injection. It
// implements core.TaskPredictor, so it drops into every evaluation and
// timing path unchanged. Each Predict rolls the state-corruption kinds
// (ctr, hist, ras, ttb) against their rates and injures the wrapped
// predictor's structures before delegating; each Update rolls the upd
// rate and, on a hit, silently drops the training outcome.
type Injector struct {
	spec  Spec
	inner core.TaskPredictor
	rng   rng
	rnd   func(int) int // rng.intn, bound once: a per-Predict method value allocates
	stats Stats
}

// New wraps inner with fault injection per spec. A zero (disabled) spec
// is legal and makes the injector a transparent proxy.
func New(spec Spec, inner core.TaskPredictor) (*Injector, error) {
	if inner == nil {
		return nil, fmt.Errorf("fault: nil inner predictor")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{spec: spec, inner: inner, rng: newRNG(spec.Seed)}
	inj.rnd = inj.rng.intn
	return inj, nil
}

// MustNew is New for statically-known specs; it panics iff New errors
// (mirroring core.MustDOLC's panic contract).
func MustNew(spec Spec, inner core.TaskPredictor) *Injector {
	inj, err := New(spec, inner)
	if err != nil {
		panic(err)
	}
	return inj
}

// Name implements core.TaskPredictor.
func (i *Injector) Name() string {
	return fmt.Sprintf("fault(%s)+%s", i.spec, i.inner.Name())
}

// Spec returns the injection configuration.
func (i *Injector) Spec() Spec { return i.spec }

// Stats returns the per-kind injection counters accumulated since the
// last Reset.
func (i *Injector) Stats() Stats { return i.stats }

// Reset implements core.TaskPredictor: the wrapped predictor, the
// injection RNG and the counters all return to their initial state, so a
// Reset replay reproduces the same fault sequence.
func (i *Injector) Reset() {
	i.inner.Reset()
	i.rng = newRNG(i.spec.Seed)
	i.stats = Stats{}
}

// roll decides whether kind k fires this step.
func (i *Injector) roll(k Kind) bool {
	r := i.spec.Rate[k]
	if r <= 0 {
		return false
	}
	if r < 1 && i.rng.float64() >= r {
		return false
	}
	i.stats.Kind[k].Rolled++
	if obs.On() {
		obsRolled.Inc()
	}
	return true
}

// inject records an injection attempt's outcome.
func (i *Injector) inject(k Kind, ok bool) {
	if ok {
		i.stats.Kind[k].Injected++
		if obs.On() {
			obsInjected.Inc()
		}
	}
}

// Predict implements core.TaskPredictor: state faults strike first, then
// the (possibly injured) wrapped predictor answers.
func (i *Injector) Predict(t *tfg.Task) core.Prediction {
	rnd := i.rnd

	if i.roll(KindCounter) {
		ok := false
		if h, is := i.inner.(exitHolder); is {
			if c, is := h.Exit().(counterCorrupter); is {
				ok = c.CorruptCounter(rnd)
			}
		} else if c, is := i.inner.(counterCorrupter); is {
			ok = c.CorruptCounter(rnd)
		}
		i.inject(KindCounter, ok)
	}

	if i.roll(KindHistory) {
		ok := false
		if h, is := i.inner.(exitHolder); is {
			if c, is := h.Exit().(historyCorrupter); is {
				ok = c.CorruptHistory(rnd)
			}
		}
		if h, is := i.inner.(bufferHolder); is {
			if c, is := h.Buffer().(historyCorrupter); is {
				ok = c.CorruptHistory(rnd) || ok
			}
		}
		i.inject(KindHistory, ok)
	}

	if i.roll(KindRAS) {
		ok := false
		if h, is := i.inner.(rasHolder); is {
			if s := h.RAS(); s != nil {
				ok = s.Corrupt(rnd)
			}
		}
		i.inject(KindRAS, ok)
	}

	if i.roll(KindTTB) {
		ok := false
		if h, is := i.inner.(bufferHolder); is {
			if c, is := h.Buffer().(entryCorrupter); is {
				ok = c.CorruptEntry(rnd)
			}
		}
		i.inject(KindTTB, ok)
	}

	return i.inner.Predict(t)
}

// Update implements core.TaskPredictor: with probability upd the training
// outcome is lost on its way back from the execution ring; otherwise it
// trains the wrapped predictor as usual.
func (i *Injector) Update(t *tfg.Task, o core.Outcome) {
	if i.roll(KindUpdate) {
		i.inject(KindUpdate, true)
		return
	}
	i.inner.Update(t, o)
}

// rng is the injector's deterministic xorshift32 generator — seeded,
// self-contained, and reset with the injector so fault sequences are
// exactly reproducible.
type rng struct{ state uint32 }

func newRNG(seed uint32) rng {
	if seed == 0 {
		seed = 0x6d736166 // "fasm": fixed non-zero default
	}
	return rng{state: seed}
}

func (r *rng) next() uint32 {
	x := r.state
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	r.state = x
	return x
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint32(n))
}

func (r *rng) float64() float64 {
	return float64(r.next()) / (1 << 32)
}
