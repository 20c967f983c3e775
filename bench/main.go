// Command bench is the repository benchmark. It runs one workload (or
// all four, each in a fresh process), checks every simulated result,
// and prints one JSON line whose metrics are the end-to-end ones
// (-trace 0) or the per-layer ones from a traced run (-trace 1).
//
// Run it through run.sh, which builds it and the mserve daemon from the
// checkout first:
//
//	bash bench/run.sh -workload sweep -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// golden holds the seed-1 digest of every workload at full scale, one
// "workload digest" pair per line.
//
//go:embed golden/digests.txt
var golden string

// An untraced run times at least minSetups fresh set-ups and reports
// their median. When set-up is cheap it times more, up to maxSetups,
// while the set-ups so far have taken less than setupBudget of wall
// time, so that a set-up of a few tens of milliseconds does not rest on
// five noisy samples.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// moreSetups reports whether a run that wants at least `least` set-ups
// should time another after n of them took `spent`.
func moreSetups(least, n int, spent time.Duration) bool {
	return n < least || (least > 1 && n < maxSetups && spent < setupBudget)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricOut is one metric of the printed result.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, spec, stream or serve (default all four, each in a fresh process)")
	seed := fs.Uint64("seed", 1, "input seed (seed 2 is held out for checking gain claims)")
	seconds := fs.Float64("seconds", 20, "minimum length of the timed phase, in seconds")
	traced := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	jsonOut := fs.String("json", "", "append each result, labelled with its workload and seed, to this file")
	spans := fs.String("spans", "", "traced runs: write the spans as Chrome trace-event JSON to this file")
	child := fs.String("child", "", "internal: measure in this process (run) or time its set-up only (setup)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) }
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1, workers: 2, scale: fullScale, spans: *spans}
	if *traced != 0 && *traced != 1 {
		logf("-trace must be 0 or 1")
		return 2
	}
	if *child != "" {
		cfg.workload = *name
		return runChild(*child, cfg, stdout, logf)
	}
	names := workloadNames
	if *name != "" {
		if !isWorkload(*name) {
			logf("unknown workload %q (have %s)", *name, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*name}
	}
	status := 0
	for _, n := range names {
		cfg.workload = n
		rep, err := measure(cfg, logf)
		if err != nil {
			logf("%s: %v", n, err)
			return 1
		}
		if want := goldenDigest(n); cfg.seed == 1 && want != "" && rep.Digest != want {
			logf("%s: digest %s does not match the seed-1 golden digest %s", n, rep.Digest, want)
			rep.Failed++
		}
		res, err := format(rep, cfg.traced)
		if err != nil {
			logf("%s: %v", n, err)
			return 1
		}
		summarize(stderr, n, cfg, rep, res)
		line, err := json.Marshal(res)
		if err != nil {
			logf("%v", err)
			return 1
		}
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, n, cfg, res); err != nil {
				logf("%v", err)
				return 1
			}
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			status = 1
		}
	}
	return status
}

func isWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// measure runs one workload. Batch workloads run in child processes, so
// the process-wide trace caches start empty for every set-up and one
// workload's memory never shows in another's; serve starts fresh
// daemons instead.
func measure(cfg config, logf func(string, ...any)) (*report, error) {
	reps := minSetups
	if cfg.traced {
		reps = 1
	}
	if cfg.workload == "serve" {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		return measureServe(cfg, reps, startDaemon(filepath.Join(filepath.Dir(exe), "mserve")), logf)
	}
	// The measuring child sets up once more, so count it in advance.
	var setups []float64
	for t0 := now(); moreSetups(reps, len(setups)+1, now().Sub(t0)); {
		var r report
		if err := spawn(cfg, "setup", &r); err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
	}
	var rep report
	if err := spawn(cfg, "run", &rep); err != nil {
		return nil, err
	}
	rep.SetupS = median(append(setups, rep.SetupS))
	return &rep, nil
}

// spawn re-executes this binary as a child measuring cfg and decodes
// the report it prints.
func spawn(cfg config, mode string, into *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-spans", cfg.spans)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child: %w", mode, err)
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("%s child printed %q: %w", mode, out, err)
	}
	return nil
}

// runChild is the child side of spawn.
func runChild(mode string, cfg config, stdout io.Writer, logf func(string, ...any)) int {
	var rep *report
	switch mode {
	case "setup":
		js, err := jobs(cfg.workload, cfg.seed, cfg.scale)
		if err != nil {
			logf("%v", err)
			return 2
		}
		d, err := setupBatch(js)
		if err != nil {
			logf("%s set-up: %v", cfg.workload, err)
			return 1
		}
		rep = &report{SetupS: d.Seconds()}
	case "run":
		var err error
		if rep, err = measureBatch(cfg, logf); err != nil {
			logf("%s: %v", cfg.workload, err)
			return 1
		}
	default:
		logf("unknown -child mode %q", mode)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// goldenDigest returns the committed seed-1 digest of a workload.
func goldenDigest(name string) string {
	for _, line := range strings.Split(golden, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1]
		}
	}
	return ""
}

// format turns a report into the printed result: every end-to-end
// metric (untraced) or every per-layer metric (traced), with its unit.
func format(rep *report, traced bool) (result, error) {
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricOut{}}
	if traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metricOut{rep.Metrics[d.name], d.unit}
		}
		return res, nil
	}
	rep.Metrics["setup_s"] = rep.SetupS
	for _, d := range endToEnd {
		v, ok := rep.Metrics[d.name]
		if !ok || v <= 0 {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
	}
	return res, nil
}

// summarize prints the result for people, with the tail percentile and
// the digest the JSON line leaves out.
func summarize(w io.Writer, name string, cfg config, rep *report, res result) {
	fmt.Fprintf(w, "bench: %s seed=%d trace=%v: %d attempted, %d failed, digest %s\n",
		name, cfg.seed, cfg.traced, res.Attempted, res.Failed, rep.Digest)
	if rep.ReqPerS > 0 {
		r := cfg.scale.serveRate
		fmt.Fprintf(w, "  closed loop %.0f req/s; open loop %.0f req/s (%.0f%% of it)\n", rep.ReqPerS, r, 100*r/rep.ReqPerS)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		note := ""
		if d.name == "cell_tail_ms" {
			note = fmt.Sprintf("  (p%g, %d cells beyond)", tailPct[name], rep.TailN)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s%s\n", d.name, res.Metrics[d.name].Value, d.unit, note)
	}
}

// appendRecord appends one labelled result line to path, the input
// bench/compare reads.
func appendRecord(path, name string, cfg config, res result) error {
	rec := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Trace    bool   `json:"trace"`
		result
	}{name, cfg.seed, cfg.traced, res}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
