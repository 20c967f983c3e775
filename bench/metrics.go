package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same names and units; the smoke test holds the two to
// each other.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from the untraced run. On serve a cell is one /eval request
// and a task is one dynamic task the daemon replayed for a cache miss.
var endToEnd = []metricDef{
	{"setup_s", "s"},          // median of several fresh-process set-ups
	{"tasks_per_s", "task/s"}, // tasks predicted or ring-simulated per host second
	{"cpu_ns_per_task", "ns"}, // user+sys CPU of the working process per task
	{"cell_p50_ms", "ms"},     // median cell (request) latency
	{"cell_tail_ms", "ms"},    // tail latency at the workload's tailPct
	{"peak_rss_mib", "MiB"},   // peak resident set of the working process
}

// perLayer are the traced run's per-layer numbers. A layer a workload
// does not reach reports 0.
var perLayer = []metricDef{
	{"msl.compile_ms", "ms"},
	{"taskform.partition_ms", "ms"},
	{"functional.ns_per_task", "ns"},
	{"trace.encode_ns_per_step", "ns"},
	{"trace.resident_bytes_per_step", "B"},
	{"workload.acquire_us", "us"},
	{"workload.next_block_ns_per_step", "ns"},
	{"workload.sims_per_cell", "count"},
	{"engine.parse_us", "us"},
	{"engine.build_us", "us"},
	{"engine.worker_busy_frac", "ratio"},
	{"core.loop_ns_per_step", "ns"},
	{"core.dolc_index_ns", "ns"},
	{"core.exit_real_ns_per_step", "ns"},
	{"core.exit_ideal_ns_per_step", "ns"},
	{"core.target_ns_per_step", "ns"},
	{"core.task_ns_per_step", "ns"},
	{"core.spec_exit_ns_per_step", "ns"},
	{"core.spec_task_ns_per_step", "ns"},
	{"core.allocs_per_cell", "count"},
	{"core.rollbacks_per_ktask", "count"},
	{"timing.ns_per_task", "ns"},
	{"mserve.validate_us", "us"},
	{"mserve.render_us", "us"},
	{"mserve.hit_p50_ms", "ms"},
	{"mserve.miss_p50_ms", "ms"},
	{"mserve.miss_tail_ms", "ms"},
	{"mserve.hit_frac", "ratio"},
	{"mserve.join_frac", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.span_coverage_frac", "ratio"},
}

// usage is this process's CPU time and peak resident set so far.
func usage() (cpu time.Duration, peakRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss << 10
}

// gcCPU samples the Go runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
