package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/provision"
	"dotprov/internal/serve"
	"dotprov/internal/workload"
)

// adviseEnv is the advise workload: a closed loop of one client sending a
// seeded mix of /v1/advise requests over loopback HTTP.
type adviseEnv struct {
	seed  int64
	cases []adviseCase
	lb    *loopback
	// ref is each case's answer from the warm-up, which every later answer
	// must repeat.
	ref []serve.AdviseResponse
}

func setupAdvise(cfg config) (env, error) {
	cases, err := adviseCases()
	if err != nil {
		return nil, err
	}
	// One search worker: on 2 CPUs the client, the HTTP stack and the
	// garbage collector share the second CPU, and fanning a request's
	// search out over both made latency higher and twice as noisy. A
	// sequential branch-and-bound also prunes the same subtrees every run,
	// so every answer repeats exactly, work counts included.
	lb, err := startLoopback(serve.New(serve.Config{Workers: 1, MaxConcurrent: 4}))
	if err != nil {
		return nil, err
	}
	e := &adviseEnv{seed: cfg.seed, cases: cases, lb: lb, ref: make([]serve.AdviseResponse, len(cases))}
	// Warm-up: ten decks in declaration order, so the timed phase starts
	// with connections, code paths and the heap warm, and set-up times a
	// body of work long enough to steady.
	for round := 0; round < 10; round++ {
		for i, c := range cases {
			for k := 0; k < c.weight; k++ {
				if err := lb.postJSON("/v1/advise", c.req, &e.ref[i]); err != nil {
					lb.close()
					return nil, fmt.Errorf("warm-up %s request %d: %w", c.shape, i, err)
				}
			}
		}
	}
	return e, nil
}

func (e *adviseEnv) close() { e.lb.close() }

// canonicalAdvise digests the parts of an answer that must repeat exactly:
// the layout, its TOC and the search's work counts, but not its wall time.
func canonicalAdvise(r serve.AdviseResponse) string {
	r.PlanMillis = 0
	b, _ := json.Marshal(r)
	return string(b)
}

// namedLayout returns an answer's placement as unit -> copy classes.
func namedLayout(r serve.AdviseResponse) map[string][]string {
	if r.Replicas != nil {
		return r.Replicas
	}
	out := make(map[string][]string, len(r.Layout))
	for k, v := range r.Layout {
		out[k] = []string{v}
	}
	return out
}

func (e *adviseEnv) measure(d time.Duration, tr *tracer) (*phase, error) {
	rng := rand.New(rand.NewSource(e.seed))
	weights := make([]int, len(e.cases))
	for i, c := range e.cases {
		weights[i] = c.weight
	}
	ph := &phase{e2e: map[string]float64{}, outputs: map[string]string{}}
	var all, slow []float64
	byShape := map[adviseShape][]float64{}
	seen := make([]int, len(e.cases))
	decks := 0
	lay := &adviseLayers{}
	start := time.Now()
	for decks == 0 || time.Since(start) < d {
		for _, ci := range deck(weights, rng) {
			c := e.cases[ci]
			ph.attempted++
			req := int64(ph.attempted)
			root := -1
			if tr != nil {
				root = tr.begin("advise.request", -1, req)
			}
			t0 := time.Now()
			status, body, err := e.lb.post("/v1/advise", "application/json", c.body)
			lat := ms(time.Since(t0))
			if tr != nil {
				tr.end(root)
			}
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				ph.failed++
				ph.wrong = append(ph.wrong, fmt.Sprintf("%s request %d: status %d", c.shape, ci, status))
				continue
			}
			var resp serve.AdviseResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, err
			}
			all = append(all, lat)
			byShape[c.shape] = append(byShape[c.shape], lat)
			if c.shape == shapeReplicated {
				slow = append(slow, lat)
			}
			seen[ci]++
			got, want := canonicalAdvise(resp), canonicalAdvise(e.ref[ci])
			if got != want {
				ph.wrong = append(ph.wrong, fmt.Sprintf("%s request %d answered %s, earlier %s", c.shape, ci, got, want))
			}
			ph.outputs[fmt.Sprintf("advise/%d", ci)] = got
			if tr != nil {
				if err := lay.trace(tr, req, e.lb.srv, c, resp); err != nil {
					return nil, err
				}
			}
		}
		decks++
	}
	elapsed := time.Since(start)

	// Output checks, outside the timed loop: re-price every distinct
	// answer with the public cost functions and re-estimate its SLA.
	var ratios []float64
	var meets, answered int
	for i, c := range e.cases {
		m, err := newModel(c.req.Workload, boxByName(c.req.Box))
		if err != nil {
			return nil, err
		}
		if c.req.Granularity == "partition" {
			if err := m.partition(); err != nil {
				return nil, err
			}
		}
		r := e.ref[i]
		if !r.Feasible {
			ph.wrong = append(ph.wrong, fmt.Sprintf("%s request %d: infeasible (%s)", c.shape, i, r.Failure))
			continue
		}
		p, err := m.priceLayout(namedLayout(r), c.req.SLA)
		if err != nil {
			return nil, fmt.Errorf("%s request %d: %w", c.shape, i, err)
		}
		if c.req.Alpha != 0 {
			// The §5.2 model prices storage in discrete units.
			if p.toc, err = m.discreteTOC(r.Layout, c.req.Alpha); err != nil {
				return nil, err
			}
		}
		if !sameFloat(p.toc, r.TOCCents) {
			ph.wrong = append(ph.wrong, fmt.Sprintf("%s request %d: TOC %.6g, re-priced %.6g", c.shape, i, r.TOCCents, p.toc))
		}
		if c.req.Replication && p.copies != r.MaxCopies {
			ph.wrong = append(ph.wrong, fmt.Sprintf("%s request %d: max_copies %d, layout holds %d", c.shape, i, r.MaxCopies, p.copies))
		}
		ratios = append(ratios, r.TOCCents/p.l0TOC)
		answered += seen[i]
		if p.meets {
			meets += seen[i]
		}
	}
	ph.e2e["p50_ms"] = median(all)
	ph.e2e["slow_p50_ms"] = median(slow)
	ph.e2e["toc_ratio"] = geomean(ratios)
	ph.e2e["sla_share"] = float64(meets) / float64(max(answered, 1))
	ph.info = append(ph.info,
		fmt.Sprintf("advise: %d requests in %d decks over %.1fs (closed loop, 1 client)", len(all), decks, elapsed.Seconds()),
		fmt.Sprintf("advise: p50_ms=%.3f p99_ms=%.3f (n=%d) slow_p50_ms=%.3f (replicated htap, n=%d)",
			median(all), quantile(append([]float64(nil), all...), 0.99), len(all), median(slow), len(slow)))
	ph.info = append(ph.info, fmt.Sprintf("advise: p50 by block %v", roundAll(blockMedians(all, 10), 3)))
	for _, s := range []adviseShape{shapeZipf, shapeReplicated, shapeOLTP, shapeExhaustive} {
		ph.info = append(ph.info, fmt.Sprintf("advise: shape %-10s p50_ms=%.3f n=%d", s, median(byShape[s]), len(byShape[s])))
	}
	ph.info = append(ph.info, fmt.Sprintf("advise: zipf units=%d, replicated units=%d copies=%d", e.ref[0].Units, e.ref[1].Units, e.ref[1].ReplicatedCopies))
	if tr != nil {
		ph.layers = lay.metrics()
		ph.wrong = append(ph.wrong, lay.wrong...)
	}
	return ph, nil
}

// boxByName resolves a wire box name.
func boxByName(name string) *device.Box {
	switch name {
	case "box2":
		return device.Box2()
	case "htap":
		return device.BoxHTAP()
	}
	return device.Box1()
}

// adviseLayers accumulates the traced phase's per-layer timings: each
// layer's public call, run in-process on the request the server just
// answered.
type adviseLayers struct {
	decode, handler, partition, compile, optimize []float64
	reqBytes, evaluated, estCalls, pruned         []float64
	optimizeNs, candidates                        float64
	wrong                                         []string
}

// trace times serve decoding, the whole in-process handler, partitioning,
// estimator compilation and the search on the request, and checks the
// in-process search reproduces the server's answer.
func (a *adviseLayers) trace(tr *tracer, req int64, srv *serve.Server, c adviseCase, resp serve.AdviseResponse) error {
	a.reqBytes = append(a.reqBytes, float64(len(c.body))/1024)
	h := tr.begin("serve.handler", -1, req)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(c.body)))
	a.handler = append(a.handler, ms(tr.end(h)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s advise: status %d", c.shape, rec.Code)
	}

	s := tr.begin("serve.decode", h, req)
	var decoded serve.AdviseRequest
	err := json.Unmarshal(c.body, &decoded)
	a.decode = append(a.decode, ms(tr.end(s)))
	if err != nil {
		return err
	}
	m, err := newModel(decoded.Workload, boxByName(decoded.Box))
	if err != nil {
		return err
	}
	est, err := m.estimator()
	if err != nil {
		return err
	}
	s = tr.begin("workload.compile", h, req)
	cest := workload.CompileEstimator(est, m.cat)
	a.compile = append(a.compile, ms(tr.end(s)))
	in := m.input(cest)
	opts := core.Options{RelativeSLA: decoded.SLA}
	if decoded.Granularity == "partition" {
		s = tr.begin("catalog.partition", h, req)
		err := m.partition()
		a.partition = append(a.partition, ms(tr.end(s)))
		if err != nil {
			return err
		}
	}
	if decoded.Alpha != 0 {
		model, compact, err := provision.DiscreteCostModels(m.cat, m.box, decoded.Alpha)
		if err != nil {
			return err
		}
		in.LayoutCost, in.LayoutCostCompact = model, compact
	}
	if decoded.Replication {
		in.Replication = core.ReplicationConfig{Enabled: true, MaxReplicas: decoded.MaxReplicas}
	}
	var res *core.Result
	s = tr.begin("core.optimize", h, req)
	switch {
	case decoded.Replication:
		var rr *core.PartitionedReplicaResult
		if rr, err = core.OptimizeReplicatedPartitioned(in, m.pt, opts); err == nil {
			res = rr.Result
		}
	case decoded.Granularity == "partition":
		var pr *core.PartitionedResult
		if pr, err = core.OptimizePartitioned(in, m.pt, opts); err == nil {
			res = pr.Result
		}
	case decoded.Exhaustive:
		res, err = core.Exhaustive(in, opts)
	default:
		res, err = core.OptimizeBest(in, opts)
	}
	took := tr.end(s)
	if err != nil {
		return err
	}
	a.optimize = append(a.optimize, ms(took))
	a.optimizeNs += float64(took)
	a.candidates += float64(res.Evaluated)
	a.evaluated = append(a.evaluated, float64(res.Evaluated))
	a.estCalls = append(a.estCalls, float64(res.EstimatorCalls))
	a.pruned = append(a.pruned, float64(res.Search.BoundPruned))
	if res.Evaluated != resp.Evaluated || res.EstimatorCalls != resp.EstimatorCalls || res.TOCCents != resp.TOCCents {
		a.wrong = append(a.wrong, fmt.Sprintf("%s: in-process search evaluated=%d est_calls=%d toc=%g, server evaluated=%d est_calls=%d toc=%g",
			c.shape, res.Evaluated, res.EstimatorCalls, res.TOCCents, resp.Evaluated, resp.EstimatorCalls, resp.TOCCents))
	}
	return nil
}

func (a *adviseLayers) metrics() map[string]float64 {
	m := zeroLayers()
	m["serve.decode_ms"] = median(a.decode)
	m["serve.handler_ms"] = median(a.handler)
	m["serve.req_kb"] = mean(a.reqBytes)
	m["catalog.partition_ms"] = median(a.partition)
	m["workload.compile_ms"] = median(a.compile)
	m["core.optimize_ms"] = median(a.optimize)
	m["search.evaluated"] = mean(a.evaluated)
	m["search.est_calls"] = mean(a.estCalls)
	m["search.pruned"] = mean(a.pruned)
	m["search.ns_per_candidate"] = a.optimizeNs / a.candidates
	return m
}
