package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"dotprov/internal/bench"
	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/profiler"
	"dotprov/internal/tpch"
	"dotprov/internal/workload"
)

// tpchDB is one built TPC-H database on a box with its workload, measured
// baseline and §3.4 profile.
type tpchDB struct {
	box  *device.Box
	db   *engine.DB
	w    *workload.DSS
	base workload.Metrics
	ps   *core.ProfileSet
	est  workload.Estimator
}

// tpchCell is one unit of the tpch deck: a Figure 2 session at (box, SLA)
// on the modified workload, or a §4.4.3 DOT-vs-ES comparison at (box,
// capacity cap) on the subset.
type tpchCell struct {
	fig2 bool
	box  int     // 0 Box 1, 1 Box 2
	sla  float64 // Figure 2 cells
	cap  float64 // §4.4.3 cells: cheapest-class capacity as a share of the DB (0 = none)
}

func (c tpchCell) String() string {
	if c.fig2 {
		return fmt.Sprintf("fig2/box%d/sla%g", c.box+1, c.sla)
	}
	return fmt.Sprintf("es/box%d/cap%g", c.box+1, c.cap)
}

var tpchCells = []tpchCell{
	{fig2: true, box: 0, sla: 0.5},
	{fig2: true, box: 1, sla: 0.5},
	{box: 0}, {box: 0, cap: 0.8}, {box: 0, cap: 0.4},
	{box: 1}, {box: 1, cap: 0.8}, {box: 1, cap: 0.4},
}

type tpchEnv struct {
	seed int64
	// repeats is how many times a deck runs each cell: twice, since one
	// run of a multi-second cell is too few samples to steady its median,
	// and once per phase of a traced run, which runs two phases.
	repeats int
	full    [2]*tpchDB // modified TPC-H, Figure 2 sessions
	subset  [2]*tpchDB // 11-template subset, §4.4.3
	// set-up layer timings of the last set-up
	buildS, profileMs float64
}

func setupTPCH(cfg config) (env, error) {
	e := &tpchEnv{seed: cfg.seed, repeats: 2}
	if cfg.trace {
		e.repeats = 1
	}
	opts := bench.Default()
	for i, box := range []*device.Box{device.Box1(), device.Box2()} {
		var err error
		if e.full[i], err = e.buildDB(box, opts, false); err != nil {
			return nil, err
		}
		if e.subset[i], err = e.buildDB(box, opts, true); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildDB builds TPC-H at the harness scale, runs the baseline on the
// all-H-SSD layout and profiles the workload (§3.4), as the paper's
// experiments set up each box.
func (e *tpchEnv) buildDB(box *device.Box, opts bench.Options, subset bool) (*tpchDB, error) {
	t0 := time.Now()
	db := engine.New(box, engine.DefaultPoolPages)
	cfg := tpch.Config{ScaleFactor: opts.TpchSF, Seed: opts.TpchSeed}
	w := tpch.ModifiedWorkload(cfg, opts.TpchSeed+1)
	build := tpch.Build
	if subset {
		build = tpch.BuildSubset
		w = tpch.SubsetWorkload(cfg, opts.TpchSeed+1)
	}
	if err := build(db, cfg); err != nil {
		return nil, err
	}
	// Keep the DB-to-buffer ratio near the paper's 30 GB vs 4 GB.
	db.ResizePool(max(db.TotalPages()/8, 32))
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		return nil, err
	}
	e.buildS += time.Since(t0).Seconds()
	base, _, err := w.Run(db)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ps, err := profiler.ProfileDSSEstimates(db, w)
	if err != nil {
		return nil, err
	}
	e.profileMs += ms(time.Since(t1))
	return &tpchDB{box: box, db: db, w: w, base: base, ps: ps, est: w.Estimator(db)}, nil
}

func (e *tpchEnv) close() {}

// timedEstimator decorates the DSS estimator with a call counter and
// timer. It implements only Estimate, as the DSS estimator does, so the
// search takes the same path with or without it.
type timedEstimator struct {
	est   workload.Estimator
	calls atomic.Int64
	nanos atomic.Int64
}

func (t *timedEstimator) Estimate(l catalog.Layout) (workload.Metrics, error) {
	t0 := time.Now()
	m, err := t.est.Estimate(l)
	t.nanos.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	return m, err
}

// runner is the benchmark's core.Runner: a cold test run of the workload
// on a layout, timed per run.
type runner struct {
	t   *tpchDB
	tr  *tracer
	req int64
	// parent is the span the runs nest under (-1 for none).
	parent int
	ms     []float64
}

func (r *runner) Run(l catalog.Layout) (workload.Observation, error) {
	s := -1
	if r.tr != nil {
		s = r.tr.begin("engine.run", r.parent, r.req)
	}
	t0 := time.Now()
	if err := r.t.db.SetLayout(l); err != nil {
		return workload.Observation{}, err
	}
	obs, err := r.t.w.RunDetailed(r.t.db)
	r.ms = append(r.ms, ms(time.Since(t0)))
	if r.tr != nil {
		r.tr.end(s)
	}
	return obs, err
}

func (t *tpchDB) input(box *device.Box, est workload.Estimator) core.Input {
	return core.Input{Cat: t.db.Cat, Box: box, Est: est, Profiles: t.ps, Concurrency: 1}
}

// digest is the part of a result that must repeat exactly.
func digest(t *tpchDB, res *core.Result) string {
	return fmt.Sprintf("%s toc=%v evaluated=%d est_calls=%d", res.Layout.String(t.db.Cat), res.TOCCents, res.Evaluated, res.EstimatorCalls)
}

func (e *tpchEnv) measure(d time.Duration, tr *tracer) (*phase, error) {
	rng := rand.New(rand.NewSource(e.seed))
	ph := &phase{e2e: map[string]float64{}, outputs: map[string]string{}}
	weights := make([]int, len(tpchCells))
	for i := range weights {
		weights[i] = e.repeats
	}
	var sessions, searches, optimizeMs []float64
	var evaluated []float64
	run := &runner{tr: tr, parent: -1}
	var est [2][2]*timedEstimator // [full|subset][box]
	for b := 0; b < 2; b++ {
		est[0][b] = &timedEstimator{est: e.full[b].est}
		est[1][b] = &timedEstimator{est: e.subset[b].est}
	}
	estFor := func(kind, b int) workload.Estimator {
		if tr == nil {
			if kind == 0 {
				return e.full[b].est
			}
			return e.subset[b].est
		}
		return est[kind][b]
	}
	// dot holds each §4.4.3 cell's DOT layout for validation.
	dot := map[string]*core.Result{}
	var ratios, psr []float64
	var sessionPSR = map[string]float64{}
	cellMs := map[string][]float64{}
	// record keeps a cell's answer; every run of a cell must repeat it.
	record := func(cell, answer string) {
		if prev, ok := ph.outputs[cell]; ok && prev != answer {
			ph.wrong = append(ph.wrong, fmt.Sprintf("%s answered %s, earlier %s", cell, answer, prev))
		}
		ph.outputs[cell] = answer
	}
	decks := 0
	start := time.Now()
	for decks == 0 || time.Since(start) < d {
		for _, ci := range deck(weights, rng) {
			c := tpchCells[ci]
			// Each cell starts from a collected heap, so the collections
			// inside it do not depend on the cell before.
			runtime.GC()
			ph.attempted++
			req := ph.attempted
			if c.fig2 {
				t := e.full[c.box]
				run.t, run.req = t, req
				root := -1
				if tr != nil {
					root = tr.begin("tpch.session", -1, req)
				}
				run.parent = root
				t0 := time.Now()
				res, val, err := core.OptimizeValidated(t.input(t.box, estFor(0, c.box)), core.Options{RelativeSLA: c.sla}, run, 3)
				took := time.Since(t0)
				if tr != nil {
					tr.end(root)
				}
				if err != nil {
					return nil, err
				}
				if !res.Feasible || val == nil {
					ph.failed++
					ph.wrong = append(ph.wrong, fmt.Sprintf("%s: DOT found no feasible layout", c))
					continue
				}
				sessions = append(sessions, ms(took))
				cellMs[c.String()] = append(cellMs[c.String()], ms(took))
				record(c.String(), digest(t, res)+fmt.Sprintf(" psr=%v", val.PSR))
				sessionPSR[c.String()] = val.PSR
				continue
			}
			t := e.subset[c.box]
			box := t.box.Clone()
			if c.cap > 0 {
				if err := box.SetCapacity(box.Cheapest().Class, int64(c.cap*float64(t.db.Cat.TotalSize()))); err != nil {
					return nil, err
				}
			}
			in := t.input(box, estFor(1, c.box))
			opts := core.Options{RelativeSLA: 0.5}
			root := -1
			if tr != nil {
				root = tr.begin("tpch.es_cell", -1, req)
			}
			s := -1
			if tr != nil {
				s = tr.begin("core.optimize", root, req)
			}
			t0 := time.Now()
			dres, err := core.Optimize(in, opts)
			optimizeMs = append(optimizeMs, ms(time.Since(t0)))
			if tr != nil {
				tr.end(s)
				s = tr.begin("core.exhaustive", root, req)
			}
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			es, err := core.Exhaustive(in, opts)
			took := time.Since(t0)
			if tr != nil {
				tr.end(s)
				tr.end(root)
			}
			if err != nil {
				return nil, err
			}
			if !dres.Feasible || !es.Feasible {
				ph.failed++
				ph.wrong = append(ph.wrong, fmt.Sprintf("%s: DOT feasible=%t ES feasible=%t", c, dres.Feasible, es.Feasible))
				continue
			}
			searches = append(searches, ms(took))
			cellMs[c.String()] = append(cellMs[c.String()], ms(took))
			evaluated = append(evaluated, float64(es.Evaluated))
			if dres.TOCCents < es.TOCCents*(1-1e-12) {
				ph.wrong = append(ph.wrong, fmt.Sprintf("%s: DOT TOC %g below the exhaustive optimum %g", c, dres.TOCCents, es.TOCCents))
			}
			record(c.String(), "dot "+digest(t, dres)+" es "+digest(t, es))
			if decks == 0 {
				dot[c.String()] = dres
				ratios = append(ratios, dres.TOCCents/es.TOCCents)
			}
		}
		decks++
	}
	elapsed := time.Since(start)
	engineMs := append([]float64(nil), run.ms...)

	// Output checks, outside the timed loop: every §4.4.3 DOT layout runs
	// on the engine against the measured baseline (core.Validate); the
	// Figure 2 sessions validated their own layouts inside the session.
	var validateMs []float64
	validated := map[string]float64{} // layout -> PSR, per subset box
	for _, c := range tpchCells {
		if c.fig2 {
			p, ok := sessionPSR[c.String()]
			if !ok {
				continue
			}
			psr = append(psr, p)
			continue
		}
		res, ok := dot[c.String()]
		if !ok {
			continue
		}
		t := e.subset[c.box]
		key := fmt.Sprintf("%d %s", c.box, res.Layout.Key())
		if p, ok := validated[key]; ok {
			psr = append(psr, p)
			continue
		}
		run.t = t
		s := -1
		if tr != nil {
			s = tr.begin("core.validate", -1, 0)
		}
		run.parent = s
		t0 := time.Now()
		val, _, err := core.Validate(t.input(t.box, t.est), run, 0.5, res.Layout)
		validateMs = append(validateMs, ms(time.Since(t0)))
		if tr != nil {
			tr.end(s)
		}
		if err != nil {
			return nil, err
		}
		validated[key] = val.PSR
		psr = append(psr, val.PSR)
	}
	// The exhaustive searches all walk the same 6561 layouts, so one
	// median covers them; the Figure 2 cells differ in cost, so the
	// session metric is the geometric mean of each cell's median.
	var cellMedians []float64
	for _, c := range tpchCells {
		if c.fig2 && len(cellMs[c.String()]) > 0 {
			cellMedians = append(cellMedians, median(cellMs[c.String()]))
		}
	}
	ph.e2e["p50_ms"] = median(searches)
	ph.e2e["slow_p50_ms"] = geomean(cellMedians)
	ph.e2e["toc_ratio"] = mean(ratios)
	ph.e2e["sla_share"] = mean(psr)
	ph.info = append(ph.info,
		fmt.Sprintf("tpch: %d decks (%d cells) in %.1fs, closed loop in-process", decks, ph.attempted, elapsed.Seconds()),
		fmt.Sprintf("tpch: es_s=%.4f (n=%d) dot_ms=%.1f (n=%d) toc_ratio(DOT/ES)=%.6f validated_psr=%v",
			median(searches)/1000, len(searches), geomean(cellMedians), len(sessions), mean(ratios), roundAll(psr, 4)))
	for _, c := range tpchCells {
		ph.info = append(ph.info, fmt.Sprintf("tpch: cell %-16s ms=%v", c, roundAll(cellMs[c.String()], 1)))
	}
	if tr != nil {
		m := zeroLayers()
		var calls, nanos int64
		for _, row := range est {
			for _, t := range row {
				calls += t.calls.Load()
				nanos += t.nanos.Load()
			}
		}
		m["tpch.build_s"] = e.buildS
		m["profiler.profile_ms"] = e.profileMs
		m["engine.run_ms"] = median(engineMs)
		m["engine.runs"] = float64(len(engineMs)) / float64(decks)
		m["workload.estimate_us"] = float64(nanos) / float64(max(calls, 1)) / 1e3
		m["workload.estimate_calls"] = float64(calls) / float64(decks)
		m["core.optimize_ms"] = median(optimizeMs)
		m["core.validate_ms"] = median(validateMs)
		m["search.evaluated"] = mean(evaluated)
		m["search.ns_per_candidate"] = median(searches) * 1e6 / mean(evaluated)
		ph.layers = m
	}
	return ph, nil
}
