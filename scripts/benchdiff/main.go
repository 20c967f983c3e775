// Command benchdiff is the benchmark regression gate for the replay hot
// path: it runs the replay, codec and timing-model micro-benchmarks (go
// test -bench), parses the results, and compares them against the
// committed baseline (BENCH_baseline.json at the repository root) with a
// tolerance band.
//
//	go run ./scripts/benchdiff              # compare against the baseline
//	go run ./scripts/benchdiff -write       # (re-)write the baseline
//	go run ./scripts/benchdiff -time-tol 4  # CI: only order-of-magnitude time gating
//
// Times (ns/op) are machine-dependent, so the time tolerance is
// deliberately generous in CI; allocations (allocs/op) are deterministic
// and gated tightly — a new allocation on the replay path fails the gate
// even when the timing band would absorb it. To re-baseline after an
// intentional performance change, run with -write on an otherwise idle
// machine and commit the refreshed JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's recorded shape. NsOp and BOp ride along for
// the report; AllocsOp is the deterministic signal.
type Bench struct {
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op"`
	AllocsOp float64            `json:"allocs_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed BENCH_baseline.json schema.
type Baseline struct {
	Go         string           `json:"go"`
	Note       string           `json:"note"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

var (
	benchRE   = flag.String("bench", "^(BenchmarkEvaluate|BenchmarkColumnar|BenchmarkTimingSim)", "benchmark regex passed to go test -bench")
	benchtime = flag.String("benchtime", "3x", "go test -benchtime per benchmark")
	count     = flag.Int("count", 1, "go test -count; the best (minimum) of the runs is kept per benchmark")
	baseline  = flag.String("baseline", "BENCH_baseline.json", "baseline file, relative to the working directory")
	write     = flag.Bool("write", false, "write/refresh the baseline instead of comparing")
	timeTol   = flag.Float64("time-tol", 0.5, "allowed fractional ns/op slowdown (0.5 = 1.5x); times are machine-dependent, so CI uses a generous band")
	allocTol  = flag.Float64("alloc-tol", 0.1, "allowed fractional allocs/op growth, plus a flat slack of 2")
	verbose   = flag.Bool("v", false, "print the per-benchmark comparison even when everything passes")
)

// benchLine matches one `go test -bench` result line: name (with the
// trailing -GOMAXPROCS stripped), iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	current, err := measure()
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmarks matched %q", *benchRE)
	}
	if *write {
		b := Baseline{
			Go:         runtime.Version(),
			Note:       "replay hot-path baseline; re-generate with `go run ./scripts/benchdiff -write` (see README)",
			Benchmarks: current,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(current), *baseline)
		return nil
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		return fmt.Errorf("read baseline (run with -write to create it): %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", *baseline, err)
	}
	return compare(base.Benchmarks, current)
}

// measure shells out to go test and folds the output into per-benchmark
// results, keeping the minimum ns/op (and allocs, which never vary)
// across -count repetitions.
func measure() (map[string]Bench, error) {
	args := []string{"test", "-run", "^$", "-bench", *benchRE,
		"-benchmem", "-benchtime", *benchtime, "-count", strconv.Itoa(*count), "."}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	results := map[string]Bench{}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		b, err := parseValues(m[3])
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		if prev, ok := results[m[1]]; ok {
			b = minBench(prev, b)
		}
		results[m[1]] = b
	}
	return results, nil
}

// parseValues decodes the value/unit pairs after the iteration count
// ("488762 ns/op 4.072 ns/step 0 B/op 0 allocs/op").
func parseValues(rest string) (Bench, error) {
	fields := strings.Fields(rest)
	b := Bench{}
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return b, fmt.Errorf("value %q: %w", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsOp = v
		case "B/op":
			b.BOp = v
		case "allocs/op":
			b.AllocsOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

func minBench(a, b Bench) Bench {
	out := a
	if b.NsOp < out.NsOp {
		out.NsOp = b.NsOp
		out.Metrics = b.Metrics
	}
	if b.BOp < out.BOp {
		out.BOp = b.BOp
	}
	if b.AllocsOp < out.AllocsOp {
		out.AllocsOp = b.AllocsOp
	}
	return out
}

// compare reports every baseline benchmark against the current run and
// fails on time regressions beyond the band, any meaningful allocation
// growth, or baseline benchmarks that no longer run.
func compare(base, current map[string]Bench) error {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)

	var failures []string
	for _, n := range names {
		b := base[n]
		c, ok := current[n]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but did not run (renamed or deleted?)", n))
			continue
		}
		status := "ok"
		if c.NsOp > b.NsOp*(1+*timeTol) {
			status = "TIME REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.0f%%, tolerance %.0f%%)",
				n, c.NsOp, b.NsOp, 100*(c.NsOp/b.NsOp-1), 100**timeTol))
		}
		if c.AllocsOp > b.AllocsOp*(1+*allocTol)+2 {
			status = "ALLOC REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f",
				n, c.AllocsOp, b.AllocsOp))
		}
		if *verbose || status != "ok" {
			fmt.Printf("%-44s %12.0f ns/op (base %12.0f)  %6.0f allocs/op (base %6.0f)  %s\n",
				n, c.NsOp, b.NsOp, c.AllocsOp, b.AllocsOp, status)
		}
	}
	var fresh []string
	for n := range current {
		if _, ok := base[n]; !ok {
			fresh = append(fresh, n)
		}
	}
	sort.Strings(fresh)
	for _, n := range fresh {
		if *verbose {
			fmt.Printf("%-44s new benchmark (not in baseline; add with -write)\n", n)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s) against %s:\n  %s",
			len(failures), *baseline, strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchdiff: %d benchmarks within tolerance (time +%.0f%%, allocs +%.0f%%+2)\n",
		len(base), 100**timeTol, 100**allocTol)
	return nil
}
