package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestValidateName(t *testing.T) {
	good := []string{
		"core.ras.pushes",
		"engine.run.queue_wait_seconds",
		"workload.trace_cache.decode_seconds",
		"a.b.c",
		"l1.s2.n3",
	}
	for _, n := range good {
		if err := ValidateName(n); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", n, err)
		}
	}
	bad := []string{
		"",
		"one",
		"two.segments",
		"four.dotted.name.segments",
		"Core.ras.pushes",
		"core.ras.Pushes",
		"core.ras.push-es",
		"core..pushes",
		".a.b",
		"a.b.",
		"9a.b.c",
		"a.9b.c",
		"core.ras.pushes ",
	}
	for _, n := range bad {
		if err := ValidateName(n); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", n)
		}
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("layer.sub.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("layer.sub.gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if len(r.Issues()) != 0 {
		t.Fatalf("unexpected issues: %v", r.Issues())
	}
}

// TestHistogramBucketBoundaries pins the le (less-or-equal) bucket
// semantics: a value exactly on a bound lands in that bound's bucket,
// values beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("layer.sub.lat", []float64{0.001, 0.01, 0.1})

	h.Observe(0.0005) // below first bound -> bucket 0
	h.Observe(0.001)  // exactly on first bound -> bucket 0 (le semantics)
	h.Observe(0.0011) // just past it -> bucket 1
	h.Observe(0.01)   // exactly on second -> bucket 1
	h.Observe(0.05)   // -> bucket 2
	h.Observe(0.1)    // exactly on last bound -> bucket 2
	h.Observe(5)      // beyond every bound -> +Inf bucket
	h.Observe(1e6)    // far beyond -> +Inf bucket

	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d count = %d, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 8 {
		t.Errorf("count = %d, want 8", got)
	}
	if sum := h.Sum(); sum < 5 {
		t.Errorf("sum = %v, want >= 5", sum)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("layer.sub.lat", nil)
	if got, want := len(h.Bounds()), len(DefaultLatencyBuckets); got != want {
		t.Fatalf("default bounds = %d, want %d", got, want)
	}
	h.Observe(0.0003)
	total := int64(0)
	for i := 0; i <= len(h.Bounds()); i++ {
		total += h.BucketCount(i)
	}
	if total != 1 {
		t.Fatalf("one observation spread over %d bucket hits", total)
	}
}

// TestConcurrentCounters hammers one counter, one gauge, and one
// histogram from many goroutines; scripts/check.sh runs this under
// -race, which makes it a data-race probe over the whole registry.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("layer.sub.count")
	g := r.Gauge("layer.sub.gauge")
	h := r.Histogram("layer.sub.lat", nil)

	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				if j%10 == 0 {
					r.Snapshot() // snapshots race increments safely
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryRecordsIssues(t *testing.T) {
	r := NewRegistry()
	r.Counter("Bad.Name.Here")
	r.Counter("layer.sub.twice")
	r.Counter("layer.sub.twice")
	r.Gauge("layer.sub.twice") // cross-type collision
	r.Histogram("layer.sub.hist", []float64{0.1, 0.1})

	issues := r.Issues()
	if len(issues) < 4 {
		t.Fatalf("want >= 4 issues, got %d: %v", len(issues), issues)
	}
	joined := strings.Join(issues, "\n")
	for _, want := range []string{"does not follow", "registered more than once", "not strictly ascending"} {
		if !strings.Contains(joined, want) {
			t.Errorf("issues missing %q:\n%s", want, joined)
		}
	}
	// Duplicate registration still returns the same counter, so writes
	// land in one place.
	a := r.Counter("layer.sub.same")
	b := r.Counter("layer.sub.same")
	if a != b {
		t.Fatal("duplicate registration returned a different counter")
	}
}

// TestSnapshotDeterministicJSON renders the same registry twice and as
// parsed JSON: byte-identical output, sorted names in every section.
func TestSnapshotDeterministicJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta.sub.count").Add(3)
	r.Counter("alpha.sub.count").Add(1)
	r.Gauge("mid.sub.gauge").Set(-5)
	r.Histogram("beta.sub.lat", []float64{0.01, 0.1}).Observe(0.02)

	var b1, b2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", b1.String(), b2.String())
	}

	var snap Snapshot
	if err := json.Unmarshal(b1.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "alpha.sub.count" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	hist := snap.Histograms[0]
	if hist.Buckets[len(hist.Buckets)-1].Le != "+Inf" {
		t.Fatalf("last bucket le = %q, want +Inf", hist.Buckets[len(hist.Buckets)-1].Le)
	}
}
