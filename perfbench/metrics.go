package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef is a metric's name and unit, as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints. Each applies to
// every workload; README.md gives the per-workload definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"ok_share", "share"},
	{"p50_ms", "ms"},
	{"slow_p50_ms", "ms"},
	{"toc_ratio", "ratio"},
	{"sla_share", "share"},
}

// perLayer are the metrics every traced run prints. A workload that
// bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"serve.decode_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.req_kb", "KB"},
	{"catalog.partition_ms", "ms"},
	{"workload.compile_ms", "ms"},
	{"core.optimize_ms", "ms"},
	{"search.evaluated", "count"},
	{"search.est_calls", "count"},
	{"search.pruned", "count"},
	{"search.ns_per_candidate", "ns"},
	{"serve.frame_decode_us", "us"},
	{"serve.queued", "count"},
	{"serve.ingested", "count"},
	{"serve.shed", "count"},
	{"serve.define_ms", "ms"},
	{"fleet.memo_hit_ratio", "share"},
	{"online.observe_us", "us"},
	{"online.readvise_ms", "ms"},
	{"core.incremental_evaluated", "count"},
	{"online.migrate_share", "share"},
	{"gen.late_p99_ms", "ms"},
	{"tpch.build_s", "s"},
	{"profiler.profile_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.runs", "count"},
	{"workload.estimate_us", "us"},
	{"workload.estimate_calls", "count"},
	{"core.validate_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// zeroLayers returns every per-layer metric at 0: the value of a layer
// the workload does not load.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// geomean is the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// blockMedians splits xs (in arrival order) into n consecutive blocks and
// returns each block's median.
func blockMedians(xs []float64, n int) []float64 {
	out := make([]float64, 0, n)
	for b := 0; b < n; b++ {
		lo, hi := b*len(xs)/n, (b+1)*len(xs)/n
		if hi > lo {
			out = append(out, median(xs[lo:hi]))
		}
	}
	return out
}
