// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the DOT advisor, checks every output, and prints one
// JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload advise --seed 1 --seconds 20 --trace 0
//
// Workloads: advise (the /v1/advise search stack over loopback HTTP),
// fleet (binary ingest beside observe→readvise decisions), tpch (the
// paper's Figure 2 and §4.4.3 runs on the engine). --trace 1 adds a traced
// phase and prints the per-layer metrics instead of the end-to-end ones.
// See README.md for what each workload loads and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// env is a workload set up and ready to measure.
type env interface {
	// measure runs the workload for d (whole decks at least once) and
	// returns what the phase saw; tr is nil in untraced phases.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// close stops everything the set-up started.
	close()
}

// phase is the outcome of one measured phase.
type phase struct {
	attempted, failed int64
	// e2e holds the end-to-end metrics except setup_s, rss_mb and
	// ok_share, which main fills.
	e2e map[string]float64
	// layers holds per-layer metrics (traced phases only).
	layers map[string]float64
	// outputs digests every decision the phase returned, per distinct
	// input; traced and untraced phases must agree on it.
	outputs map[string]string
	// info lines are printed before the result, for people.
	info []string
	// lateP99 is how late the open-loop generator ran (p99, ms), and memo
	// summarizes the fleet memo's hit shares; both are empty for closed
	// loops.
	lateP99 float64
	memo    string
	// wrong lists failed output checks; any entry fails the run.
	wrong []string
}

// workloadDef is a workload's set-up function and how many times a run
// builds its set-up: setup_s is the median, and the last set-up is the one
// measured. Sub-second set-ups repeat more often to steady the median.
// maxLateMs is the generator lateness (p99) beyond which a run is
// invalid.
const maxLateMs = 50

type workloadDef struct {
	setup func(cfg config) (env, error)
	reps  int
}

var workloads = map[string]workloadDef{
	"advise": {setupAdvise, 5},
	"fleet":  {setupFleet, 7},
	"tpch":   {setupTPCH, 3},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: advise, fleet or tpch")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the request streams are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs a traced phase and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want advise, fleet or tpch)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var e env
	setupTimes := make([]float64, wl.reps)
	for i := range setupTimes {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = wl.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes[i] = time.Since(start).Seconds()
	}
	defer e.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	plain, err := e.measure(d, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	wrong := plain.wrong
	final := plain
	if cfg.trace {
		tr := newTracer()
		traced, err := e.measure(d, tr)
		if err != nil {
			return nil, err
		}
		wrong = append(wrong, traced.wrong...)
		wrong = append(wrong, diffOutputs(plain.outputs, traced.outputs)...)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		traced.layers["trace.overhead_ms"] = traced.e2e["p50_ms"] - plain.e2e["p50_ms"]
		traced.layers["trace.spans"] = float64(len(tr.spans))
		path, err := tr.write(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
		for _, line := range tr.selfTimes() {
			fmt.Println("trace:", line)
		}
		final = traced
	}
	for _, line := range final.info {
		fmt.Println(line)
	}
	// A run whose open-loop generator fell behind measured its own
	// backlog, not the system: it is marked invalid.
	valid := final.lateP99 < maxLateMs
	fmt.Printf("validity: valid=%t nproc=%d gomaxprocs=%d go=%s seed=%d gen.late_p99_ms=%.3f memo=%q\n",
		valid, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, final.lateP99, final.memo)
	for _, w := range wrong {
		fmt.Println("WRONG:", w)
	}
	res.Correct = len(wrong) == 0

	vals := map[string]float64{
		"setup_s":  median(setupTimes),
		"rss_mb":   peakRSSMB(),
		"ok_share": 1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
	}
	for k, v := range plain.e2e {
		vals[k] = v
	}
	fmt.Printf("setup_s runs: %v\n", roundAll(setupTimes, 4))
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		vals = final.layers
	}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report metric %s", cfg.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(res.Metrics) != len(defs) {
		return nil, fmt.Errorf("workload %s reported %d metrics, want %d", cfg.workload, len(res.Metrics), len(defs))
	}
	return res, nil
}

// diffOutputs lists the inputs whose decision differs between the
// untraced and the traced phase.
func diffOutputs(plain, traced map[string]string) []string {
	var wrong []string
	keys := make([]string, 0, len(traced))
	for k := range traced {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if p, ok := plain[k]; ok && p != traced[k] {
			wrong = append(wrong, fmt.Sprintf("traced output for %s differs from untraced: %s vs %s", k, traced[k], p))
		}
	}
	return wrong
}
