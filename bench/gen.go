package main

import (
	"fmt"
	"math"

	"multiscalar/internal/engine"
)

// rng is a splitmix64 stream, the harness's only source of randomness:
// the same seed always yields the same cells, request mix and arrival
// times, and the program under test receives only those generated inputs.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose (spec grid,
// request mix, arrivals, sampling) from the run's seed.
func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponentially distributed interval with the given mean.
func (r *rng) exp(mean float64) float64 { return -math.Log(1-r.float()) * mean }

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Streams of the run seed, one per purpose.
const (
	streamSpecs = iota + 1
	streamOrder
	streamSample
	streamMix
	streamArrivals
)

// automata are the grammar tokens of the seven PHT automata (§5.1).
var automata = []string{"le", "leh1", "leh2", "vc2mru", "vc2rand", "vc3mru", "vc3rand"}

// canonical returns the engine's canonical spelling of a generated spec.
// The generators only emit well-formed specs, so a parse failure is a
// bug in this file.
func canonical(spec string) string {
	sp, err := engine.Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("bench: generated spec %q: %v", spec, err))
	}
	return sp.String()
}

// specGen generates predictor specs slot by slot. A slot fixes the
// parameters that set a cell's host cost: scheme, automaton, table
// width, history depth and folds, session lag. The seed draws the rest:
// which address bits index each table, GLOBAL's current-task bits,
// PER's table split, RAS depth, repair latency, and ±1 on ideal and
// CTTB depths. Every seed thus runs a different grid (different
// aliasing, different results and digests) of nearly the same total
// work, which keeps the end-to-end numbers comparable across seeds.
type specGen struct{ r *rng }

func newSpecGen(seed uint64) *specGen { return &specGen{r: newRNG(seed, streamSpecs)} }

// dolc returns a DOLC segment of depth d and folds f whose folded index
// is width bits wide; the seed splits the last and current task bits.
func (g *specGen) dolc(width, d, f int) string {
	total := width * f
	o := total / (d + 1)
	rest := total - (d-1)*o
	l := min(max(rest/2+g.r.intn(3)-1, 1), rest-1)
	return fmt.Sprintf("d%d-o%d-l%d-c%d-f%d", d, o, l, rest-l, f)
}

// realExit returns slot k of the 21-slot table-backed exit grid: scheme
// PATH, GLOBAL or PER by k mod 3, and within each scheme every
// automaton and every index width of 10–16 bits once.
func (g *specGen) realExit(k int) string {
	s, q := k%3, k/3%7
	auto, width := automata[(q+s)%7], 10+(q+2*s)%7
	switch s {
	case 0:
		return "path:" + g.dolc(width, 2+q, 1+q%3) + ":" + auto
	case 1:
		return fmt.Sprintf("global:d%d-c%d-i%d:%s", 3+q, 4+g.r.intn(5), width, auto)
	default:
		return fmt.Sprintf("per:d%d-h%d-t%d-i%d:%s", 2+q, 8+g.r.intn(5), 4+g.r.intn(5), width, auto)
	}
}

// idealExit returns slot k of the 6-slot alias-free grid: each ideal
// scheme at a shallow (2–3) and a deep (7–8) history.
func (g *specGen) idealExit(k int) string {
	kind := []string{"ipath", "iglobal", "iper"}[k%3]
	d := []int{2, 7}[k/3%2] + g.r.intn(2)
	return fmt.Sprintf("%s:d%d:%s", kind, d, automata[(2*k+1)%7])
}

// target returns slot k of the 4-slot target buffer grid: three real
// CTTBs of growing width and depth, then an ideal one.
func (g *specGen) target(k int) string {
	q := k % 4
	if q == 3 {
		return fmt.Sprintf("icttb:d%d", 5+g.r.intn(2))
	}
	return "cttb:" + g.dolc(11+2*q, 3+2*q, 1+q)
}

// rasFlag draws the composed predictor's return address stack.
func (g *specGen) rasFlag() string {
	return []string{"ras8", "ras16", "ras32", "ras64", "noras"}[g.r.intn(5)]
}

// composedPath returns a header predictor around a real PATH exit
// predictor, slot q fixing its automaton and table shapes.
func (g *specGen) composedPath(q int, flags string) string {
	return "composed:path:" + g.dolc(12+q%5, 7-q%5, 1+q%3) + ":" + automata[(2*q+1)%7] + flags +
		":" + g.rasFlag() + ":cttb:" + g.dolc(10+q%4, 4+q%3, 1+q%2)
}

// composed returns slot k of the 5-slot header predictor grid: four
// real PATH+CTTB predictors and one ideal one.
func (g *specGen) composed(k int) string {
	if q := k % 5; q < 4 {
		return g.composedPath(q, "")
	}
	return fmt.Sprintf("composed:ipath:d%d:leh2:%s:icttb:d%d", 5+g.r.intn(2), g.rasFlag(), 5+g.r.intn(2))
}

// sweepSlots is the length of the paper-figure mix: 21 real exit
// predictors (58%), 6 ideal ones (17%), 4 target buffers (11%) and 5
// composed predictors (14%).
const sweepSlots = 36

// sweepSpec is slot i of the paper-figure mix.
func (g *specGen) sweepSpec(i int) string {
	switch k := i % sweepSlots; {
	case k < 21:
		return canonical(g.realExit(k))
	case k < 27:
		return canonical(g.idealExit(k - 21))
	case k < 31:
		return canonical(g.target(k - 27))
	default:
		return canonical(g.composed(k - 31))
	}
}

// specReplaySpec is slot i of the speculative-update replay mix:
// alternately an exit predictor and a composed one, each with a
// dlat1|2|4|8 session lag.
func (g *specGen) specReplaySpec(i int) string {
	dlat := fmt.Sprintf(":dlat%d", []int{1, 2, 4, 8}[i/2%4])
	if i%2 == 0 {
		exit := g.realExit(i / 2 * 4)
		if i%8 == 6 {
			exit = g.idealExit(i / 8)
		}
		return canonical(exit + dlat + ":spec")
	}
	return canonical(g.composedPath(i/2, dlat) + ":spec")
}

// timingSpec is slot i of the ring-model mix: the perfect predictor,
// then composed predictors under speculative update with a seeded
// repair latency.
func (g *specGen) timingSpec(i int) string {
	if i%5 == 0 {
		return "perfect"
	}
	rlat := []int{0, 4, 8, 32}[g.r.intn(4)]
	return canonical(fmt.Sprintf("%s:spec:rlat%d", g.composedPath(i, ""), rlat))
}

// streamSpec is slot i of the streaming mix: real exit predictors with
// one composed predictor and one target buffer in every eight.
func (g *specGen) streamSpec(i int) string {
	switch i % 8 {
	case 3:
		return canonical(g.composed(i / 8))
	case 6:
		return canonical(g.target(i / 8))
	default:
		return canonical(g.realExit(i * 5))
	}
}
