// Command compare judges a change against its parent from benchmark
// results. Each argument directory holds result files from one commit;
// a file is one or more labelled JSON lines as bench writes them with
// -json. Files with the same name in both directories form a pair; run
// the two sides alternately, at least ten pairs, with identical
// settings.
//
//	cd bench && go run ./compare -benchmark ../BENCHMARK.json parent/ change/
//
// For every workload and end-to-end metric it prints each side's
// median and quartiles, the share of pairs the change won, and a
// verdict:
//
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the parent's own quartile spread exceeds the bound,
//     unless every change run beats every parent run;
//   - improved: the change won at least nine tenths of the pairs (ties
//     count for neither) and the medians differ by more than the
//     parent's quartile spread;
//   - unchanged: otherwise.
//
// The failure share (failed ÷ attempted) regresses when the change's
// median exceeds the parent's. compare exits 1 when anything regressed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type record struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pairKey identifies one run: its file and workload.
type pairKey struct{ file, workload string }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metrics and bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	metrics, err := readMetrics(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	parent, err := readDir(fs.Arg(0))
	if err == nil {
		var change map[pairKey]record
		if change, err = readDir(fs.Arg(1)); err == nil {
			return report(stdout, stderr, metrics, parent, change)
		}
	}
	fmt.Fprintln(stderr, "compare:", err)
	return 2
}

func readMetrics(path string) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// readDir loads every untraced result in dir, keyed by file and workload.
func readDir(dir string) (map[pairKey]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[pairKey]record{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(p)
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var r record
			err := json.Unmarshal([]byte(line), &r)
			if err == nil && r.Workload == "" {
				err = fmt.Errorf("a record has no workload; write results with bench -json")
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if !r.Trace {
				out[pairKey{base, r.Workload}] = r
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced results", dir)
	}
	return out, nil
}

func report(w, stderr io.Writer, metrics []metricSpec, parent, change map[pairKey]record) int {
	var keys []pairKey
	for k := range parent {
		if _, ok := change[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].file < keys[j].file
	})
	byWorkload := map[string][]pairKey{}
	var workloads []string
	for _, k := range keys {
		if byWorkload[k.workload] == nil {
			workloads = append(workloads, k.workload)
		}
		byWorkload[k.workload] = append(byWorkload[k.workload], k)
	}
	if len(workloads) == 0 {
		fmt.Fprintln(stderr, "compare: no result file appears in both directories")
		return 2
	}
	status := 0
	fmt.Fprintf(w, "%-8s %-16s %5s  %-32s  %-32s  %5s  %s\n", "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, wl := range workloads {
		ks := byWorkload[wl]
		if len(ks) < 10 {
			fmt.Fprintf(stderr, "compare: %s has %d pairs; a claim needs at least ten\n", wl, len(ks))
		}
		for _, m := range metrics {
			var p, c []float64
			for _, k := range ks {
				pv, pok := parent[k].Metrics[m.Name]
				cv, cok := change[k].Metrics[m.Name]
				if pok && cok {
					p, c = append(p, pv.Value), append(c, cv.Value)
				}
			}
			if len(p) == 0 {
				continue
			}
			v, won := judge(m, p, c)
			if v == "regressed" {
				status = 1
			}
			fmt.Fprintf(w, "%-8s %-16s %5d  %-32s  %-32s  %4.0f%%  %s\n", wl, m.Name, len(p), summary(p), summary(c), 100*won, v)
		}
		var pf, cf []float64
		for _, k := range ks {
			pf = append(pf, failedFrac(parent[k]))
			cf = append(cf, failedFrac(change[k]))
		}
		v := "unchanged"
		if median(cf) > median(pf) {
			v, status = "regressed", 1
		}
		fmt.Fprintf(w, "%-8s %-16s %5d  %-32s  %-32s  %5s  %s\n", wl, "failed_frac", len(ks), summary(pf), summary(cf), "", v)
	}
	return status
}

func failedFrac(r record) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// judge applies the verdict rule to one metric's paired runs and
// returns the verdict and the share of pairs the change won.
func judge(m metricSpec, p, c []float64) (string, float64) {
	// worse is how much x is worse than y, as a share of y.
	worse := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		if m.Better == "higher" {
			return (y - x) / y
		}
		return (x - y) / y
	}
	wins := 0
	for i := range p {
		if worse(p[i], c[i]) > 0 {
			wins++
		}
	}
	won := float64(wins) / float64(len(p))
	pq1, pmed, pq3 := quartiles(p)
	_, cmed, _ := quartiles(c)
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			if worse(pv, cv) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse(cmed, pmed) > m.Bound:
		return "regressed", won
	case pmed != 0 && (pq3-pq1)/pmed > m.Bound && !allBetter:
		return "unresolved", won
	case won >= 0.9 && worse(pmed, cmed) > 0 && abs(cmed-pmed) > pq3-pq1:
		return "improved", won
	}
	return "unchanged", won
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs by the exclusive method
// (Python's statistics.quantiles(xs, n=4)), so the spreads this tool
// reports match those of a Python check over the same runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
