package main

import (
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. Moves and On say which end-to-end
// metric a layer metric is expected to move, and on which workload; they
// are printed beside the traced run's figures and documented in README.md.
type metricDef struct {
	Name, Unit, Moves, On string
}

// e2eMetrics are the end-to-end metrics every untraced run prints, in
// BENCHMARK.json order. A "job" is one glitchd request on the serving
// workload and one pass (see runPasses) on the batch workloads.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "attempts_per_s", Unit: "1/s"},
	{Name: "job_latency_p50_ms", Unit: "ms"},
	{Name: "job_latency_tail_ms", Unit: "ms"},
	{Name: "jobs_per_s", Unit: "1/s"},
	{Name: "peak_rss_mb", Unit: "MiB"},
}

// layerMetrics are the per-layer metrics every traced run prints.
var layerMetrics = []metricDef{
	{"isa.decode_ns", "ns", "attempts_per_s", "campaign"},
	{"emu.step_ns", "ns", "attempts_per_s", "campaign, scans"},
	{"firmware.reset_us", "us", "attempts_per_s", "table6 (scans: no change)"},
	{"pipeline.run_us", "us", "attempts_per_s", "table6"},
	{"pipeline.steps_per_run", "count", "attempts_per_s", "table6"},
	{"pipeline.step_ns", "ns", "attempts_per_s", "table6"},
	{"pipeline.hang_share", "ratio", "attempts_per_s", "table6"},
	{"glitcher.event_ns", "ns", "attempts_per_s", "table6, scans"},
	{"glitcher.event_hit_ratio", "ratio", "attempts_per_s", "table6, scans"},
	{"glitcher.attempt_us", "us", "attempts_per_s", "scans"},
	{"glitcher.table1_s", "s", "attempts_per_s", "scans"},
	{"glitcher.table2_s", "s", "attempts_per_s", "scans"},
	{"glitcher.table3_s", "s", "attempts_per_s", "scans"},
	{"search.find_ms", "ms", "attempts_per_s", "scans"},
	{"campaign.sweep_bare_us", "us", "attempts_per_s", "campaign"},
	{"campaign.run_ms", "ms", "attempts_per_s", "campaign"},
	{"campaign.sweep_observed_us", "us", "job_latency_p50_ms, jobs_per_s", "glitchd (campaign: no change)"},
	{"core.compile_ms", "ms", "setup_s", "table6"},
	{"core.table6_cell_s", "s", "attempts_per_s", "table6"},
	{"core.table6_exec_ratio", "ratio", "attempts_per_s", "table6"},
	{"core.table6_useful_ratio", "ratio", "attempts_per_s", "table6"},
	{"runctl.complete_us", "us", "job_latency_p50_ms", "glitchd"},
	{"serve.exec_campaign_ms", "ms", "job_latency_*, jobs_per_s", "glitchd"},
	{"serve.exec_scan_ms", "ms", "job_latency_*, jobs_per_s", "glitchd"},
	{"serve.exec_eval_ms", "ms", "job_latency_*, jobs_per_s", "glitchd"},
	{"serve.submit_ms", "ms", "job_latency_*, jobs_per_s", "glitchd"},
	{"serve.overhead_ms", "ms", "job_latency_*, jobs_per_s", "glitchd"},
	{"serve.cache_hit_ratio", "ratio", "job_latency_*, jobs_per_s", "glitchd"},
	{"serve.refused_share", "ratio", "job_latency_*, jobs_per_s", "glitchd"},
	{"serve.full_campaign_ms", "ms", "none (16-flip jobs are not in the mix)", "glitchd"},
	{"serve.full_campaign_overhead_ms", "ms", "none (16-flip jobs are not in the mix)", "glitchd"},
	{"host.ref_loop_ms", "ms", "none (noise reference)", "all"},
}

// overheadPrefix names the tracing-overhead metrics of a traced run: for
// each end-to-end metric, the traced half's value minus the untraced
// half's, on the workload being run.
const overheadPrefix = "trace.overhead."

// allLayerMetrics is layerMetrics plus one tracing-overhead metric per
// end-to-end metric: everything a traced run prints.
func allLayerMetrics() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, m := range e2eMetrics {
		out = append(out, metricDef{overheadPrefix + m.Name, m.Unit, "none (tracing cost)", "the traced workload"})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the highest percentile of xs that still has tailSamples
// samples beyond it, and that percentile. When that percentile would not
// lie above the median, too few samples were taken for a tail, and it
// returns the maximum.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := n - tailSamples - 1
	if i <= (n-1)/2 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad "who" or pointer
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// refLoopSink keeps the reference loop from being optimized away.
var refLoopSink uint64

// hostRefLoop times a fixed CPU-bound loop, the median of five, so noisy
// hosts can be recognized. No metric is rescaled by it.
func hostRefLoop() float64 {
	var times []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refLoopSink += x
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}
