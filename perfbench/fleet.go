package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/online"
	"dotprov/internal/serve"
)

// Fleet workload shape. Frame tenants only stream binary batches; the
// disjoint decision tenants only send JSON windows and /v1/readvise, so no
// decision depends on when a frame folds.
const (
	frameTenants = 256
	frameShapes  = 3
	framesPerBat = 16
	// batchRate is the offered rate of binary batches per second. One
	// loopback client and the fold workers saturate between 2400 and 3000
	// batches/s of 16 frames on 2 CPUs. At half that load, queueing
	// amplified machine drift into a 15-28% run-to-run spread of the ack
	// median; at 500/s (about a fifth) the spread is near 5%.
	batchRate = 500
	// sharedTenants decision tenants share one definition (their re-advises
	// hit the fleet memo after the first); uniqueTenants each have their
	// own.
	sharedTenants = 5
	uniqueTenants = 4
	// memoEntries sizes the fleet memo to one entry per distinct key of a
	// decision round: the shared key survives within a round while every
	// unique key is evicted before its tenant comes round again, so unique
	// drift is a memo miss every time.
	memoEntries = 1 + uniqueTenants
	// decisionRate is the offered rate of decisions (a drifted JSON window
	// then /v1/readvise) per second; a closed decision loop saturated a CPU
	// and made every latency noisier.
	decisionRate = 300
	// qualityRounds is the fixed prefix of decision rounds toc_ratio is
	// computed over, so it does not depend on how many rounds a run fits.
	qualityRounds = 4
	fleetSLA      = 0.25
)

// cohorts is how many decision cohorts set-up defines: a traced run's two
// phases each start a fresh cohort from its definition, so both phases
// make the same decisions.
const cohorts = 2

// decisionTenant is one tenant of a decision cohort.
type decisionTenant struct {
	name   string
	shape  int // index into fleetEnv.dshapes
	shared bool
}

// in returns the tenant's stream name in cohort c.
func (d decisionTenant) in(c int) string { return fmt.Sprintf("%s-c%d", d.name, c) }

type fleetEnv struct {
	seed    int64
	lb      *loopback
	fshapes []serve.WorkloadSpec // frame tenant definitions
	batches [][]byte             // one encoded batch per frame shape
	dshapes []serve.WorkloadSpec // decision tenant definitions
	// windows[s][k] is decision shape s's window of kind k (0 drifted,
	// 1 back at the definition).
	windows  [][2]serve.WorkloadSpec
	deciders []decisionTenant
	defineMs []float64
	// defineHits and defineMisses are the fleet memo's counters after the
	// set-up's defines.
	defineHits, defineMisses int64
	acked                    int64 // frames acknowledged over the run so far
	phaseRuns                int
}

func setupFleet(cfg config) (env, error) {
	e := &fleetEnv{seed: cfg.seed}
	for s := 0; s < frameShapes; s++ {
		spec, err := fleetShape(3+s, 1.0+0.1*float64(s))
		if err != nil {
			return nil, err
		}
		spec.ElapsedMillis = 60000
		e.fshapes = append(e.fshapes, spec)
		e.batches = append(e.batches, frameBatch(spec, framesPerBat))
	}
	for s := 0; s < 1+uniqueTenants; s++ {
		spec, err := fleetShape(8, 1.3+0.05*float64(s))
		if err != nil {
			return nil, err
		}
		spec.ElapsedMillis = 60000
		e.dshapes = append(e.dshapes, spec)
		e.windows = append(e.windows, [2]serve.WorkloadSpec{scanWindow(spec, 0.6), spec})
	}
	for i := 0; i < sharedTenants; i++ {
		e.deciders = append(e.deciders, decisionTenant{name: fmt.Sprintf("decide-shared-%d", i), shape: 0, shared: true})
	}
	for i := 0; i < uniqueTenants; i++ {
		e.deciders = append(e.deciders, decisionTenant{name: fmt.Sprintf("decide-unique-%d", i), shape: 1 + i})
	}
	lb, err := startLoopback(serve.New(serve.Config{
		Workers:       1, // as in advise: searches run on the calling goroutine
		MaxConcurrent: 4,
		Shards:        2,
		MaxStreams:    frameTenants + cohorts*len(e.deciders),
		MemoEntries:   memoEntries,
	}))
	if err != nil {
		return nil, err
	}
	e.lb = lb
	define := func(name string, spec serve.WorkloadSpec) error {
		t0 := time.Now()
		var resp serve.ObserveResponse
		err := lb.postJSON("/v1/observe", serve.ObserveRequest{
			Stream: name, Workload: spec, Box: "box1", SLA: fleetSLA, Granularity: "partition",
		}, &resp)
		e.defineMs = append(e.defineMs, ms(time.Since(t0)))
		if err == nil && !resp.Initialized {
			err = fmt.Errorf("define %s: not initialized: %s", name, resp.Failure)
		}
		return err
	}
	for i := 0; i < frameTenants; i++ {
		if err := define(frameTenant(i), e.fshapes[i%frameShapes]); err != nil {
			lb.close()
			return nil, err
		}
	}
	for c := 0; c < cohorts; c++ {
		for _, d := range e.deciders {
			if err := define(d.in(c), e.dshapes[d.shape]); err != nil {
				lb.close()
				return nil, err
			}
		}
	}
	h, err := lb.health()
	if err != nil {
		lb.close()
		return nil, err
	}
	e.defineHits, e.defineMisses = h.MemoHits, h.MemoMisses
	return e, nil
}

func frameTenant(i int) string { return fmt.Sprintf("frames-%02d", i) }

func (e *fleetEnv) close() { e.lb.close() }

// decision is one observe→readvise round trip's outcome.
type decision struct {
	tenant, round int
	resp          serve.ReadviseResponse
}

func (e *fleetEnv) measure(d time.Duration, tr *tracer) (*phase, error) {
	if e.phaseRuns == cohorts {
		return nil, fmt.Errorf("fleet: all %d decision cohorts used", cohorts)
	}
	cohort := e.phaseRuns
	e.phaseRuns++
	rng := rand.New(rand.NewSource(e.seed))
	h0, err := e.lb.health()
	if err != nil {
		return nil, err
	}
	ph := &phase{e2e: map[string]float64{}, outputs: map[string]string{}}
	mirror, err := newMirrors(e, tr != nil)
	if err != nil {
		return nil, err
	}

	// The frame generator and the decision client are the run's two
	// client goroutines, each sending on its own fixed schedule.
	var (
		wg                sync.WaitGroup
		ack, late, decode []float64
		maxQueued         int64
		fAttempted        int64
		fFailed           int64
		fAcked            int64
		genErr            error
	)
	order := rng.Perm(frameTenants)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		interval := time.Second / batchRate
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if due.Sub(start) >= d {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			tenant := order[k%frameTenants]
			body := e.batches[tenant%frameShapes]
			status, b, err := e.lb.post("/v1/observe?stream="+frameTenant(tenant), online.ContentTypeFrames, body)
			done := time.Now()
			if err != nil {
				genErr = err
				return
			}
			fAttempted++
			late = append(late, ms(sent.Sub(due)))
			if status != http.StatusAccepted {
				fFailed++
				continue
			}
			fAcked += framesPerBat
			ack = append(ack, ms(done.Sub(due)))
			var r serve.ObserveFramesResponse
			if err := json.Unmarshal(b, &r); err == nil && r.Queued > maxQueued {
				maxQueued = r.Queued
			}
			if tr != nil {
				t0 := time.Now()
				if _, err := serve.DecodeExtentFrames(body); err != nil {
					genErr = err
					return
				}
				decode = append(decode, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
	}()

	judge := newJudge(e)
	var dlat, dlate []float64
	var byKind [2][]float64 // decision latency of shared, unique tenants
	var dAttempted, dFailed int64
	interval := time.Second / decisionRate
	k := 0
	var dErr error
decide:
	for round := 0; round < qualityRounds || time.Duration(k)*interval < d; round++ {
		for _, ti := range rng.Perm(len(e.deciders)) {
			t := e.deciders[ti]
			win := e.windows[t.shape][round%2]
			due := start.Add(time.Duration(k) * interval)
			k++
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			dlate = append(dlate, ms(sent.Sub(due)))
			dAttempted++
			req := dAttempted
			root := -1
			if tr != nil {
				root = tr.begin("fleet.decision", -1, req)
			}
			var obs serve.ObserveResponse
			err := e.lb.postJSON("/v1/observe", serve.ObserveRequest{Stream: t.in(cohort), Workload: win}, &obs)
			var rv serve.ReadviseResponse
			if err == nil {
				err = e.lb.postJSON("/v1/readvise", serve.ReadviseRequest{Stream: t.in(cohort)}, &rv)
			}
			lat := ms(time.Since(sent))
			if tr != nil {
				tr.end(root)
			}
			if err != nil {
				dFailed++
				ph.wrong = append(ph.wrong, fmt.Sprintf("decision %s round %d: %v", t.in(cohort), round, err))
				continue
			}
			dlat = append(dlat, lat)
			if t.shared {
				byKind[0] = append(byKind[0], lat)
			} else {
				byKind[1] = append(byKind[1], lat)
			}
			judge.add(ti, round, rv)
			if mirror != nil {
				if dErr = mirror.decide(tr, req, ti, round, rv); dErr != nil {
					break decide
				}
			}
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	if genErr != nil {
		return nil, genErr
	}
	if dErr != nil {
		return nil, dErr
	}
	e.acked += fAcked

	// Drain, outside the timed phase: every acknowledged frame must fold.
	deadline := time.Now().Add(30 * time.Second)
	h1, err := e.lb.health()
	for err == nil && (h1.Queued > 0 || h1.Ingested < e.acked) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		h1, err = e.lb.health()
	}
	if err != nil {
		return nil, err
	}
	if h1.Ingested != e.acked {
		ph.wrong = append(ph.wrong, fmt.Sprintf("server folded %d frames, %d were acknowledged", h1.Ingested, e.acked))
	}

	q, err := judge.finish()
	if err != nil {
		return nil, err
	}
	ph.wrong = append(ph.wrong, q.wrong...)
	for k, v := range q.outputs {
		ph.outputs[k] = v
	}
	ph.attempted = fAttempted + dAttempted
	ph.failed = fFailed + dFailed
	ph.e2e["p50_ms"] = median(ack)
	ph.e2e["slow_p50_ms"] = median(dlat)
	ph.e2e["toc_ratio"] = q.tocRatio
	ph.e2e["sla_share"] = q.slaShare

	lateP99 := max(quantile(append([]float64(nil), late...), 0.99), quantile(append([]float64(nil), dlate...), 0.99))
	hits, misses := h1.MemoHits-h0.MemoHits, h1.MemoMisses-h0.MemoMisses
	ph.lateP99 = lateP99
	ph.memo = fmt.Sprintf("defines %.3f, drift %.3f", float64(e.defineHits)/float64(max(e.defineHits+e.defineMisses, 1)),
		float64(hits)/float64(max(hits+misses, 1)))
	ph.info = append(ph.info,
		fmt.Sprintf("fleet: offered %d batches/s x %d frames and %d decisions/s: %d batches in %.1fs",
			batchRate, framesPerBat, decisionRate, fAttempted, elapsed.Seconds()),
		fmt.Sprintf("fleet: ack_p50_ms=%.3f ack_p99_ms=%.3f (n=%d) decision_p50_ms=%.3f decision_p99_ms=%.3f (n=%d)",
			median(ack), quantile(append([]float64(nil), ack...), 0.99), len(ack),
			median(dlat), quantile(append([]float64(nil), dlat...), 0.99), len(dlat)),
		fmt.Sprintf("fleet: decision p50 shared tenants %.3f (n=%d), unique tenants %.3f (n=%d)",
			median(byKind[0]), len(byKind[0]), median(byKind[1]), len(byKind[1])),
		fmt.Sprintf("fleet: ack p50 by block %v", roundAll(blockMedians(ack, 10), 3)),
		fmt.Sprintf("fleet: decision p50 by block %v", roundAll(blockMedians(dlat, 10), 3)),
		fmt.Sprintf("fleet: memo defines hits=%d misses=%d (hit share %.3f); decisions hits=%d misses=%d (hit share %.3f)",
			e.defineHits, e.defineMisses, float64(e.defineHits)/float64(max(e.defineHits+e.defineMisses, 1)),
			hits, misses, float64(hits)/float64(max(hits+misses, 1))),
		fmt.Sprintf("fleet: decision hit share expected %.3f (shared %d of %d tenants)",
			float64(sharedTenants-1)/float64(len(e.deciders)), sharedTenants, len(e.deciders)),
		fmt.Sprintf("fleet: ingested=%d shed=%d error_share=%.4f", h1.Ingested-h0.Ingested, h1.Shed-h0.Shed,
			float64(ph.failed)/float64(max(ph.attempted, 1))))
	if tr != nil {
		m := zeroLayers()
		m["serve.frame_decode_us"] = median(decode)
		m["serve.queued"] = float64(maxQueued)
		m["serve.ingested"] = float64(h1.Ingested - h0.Ingested)
		m["serve.shed"] = float64(h1.Shed - h0.Shed)
		m["serve.define_ms"] = median(e.defineMs)
		m["fleet.memo_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
		m["gen.late_p99_ms"] = lateP99
		m["core.optimize_ms"] = median(q.coldMs)
		m["search.evaluated"] = mean(q.coldEvaluated)
		m["search.est_calls"] = mean(q.coldEstCalls)
		m["search.ns_per_candidate"] = q.coldNs / q.coldCandidates
		mirror.report(m)
		ph.wrong = append(ph.wrong, mirror.wrong...)
		ph.layers = m
	}
	return ph, nil
}

// fleetQuality is what the decisions are judged by.
type fleetQuality struct {
	tocRatio, slaShare     float64
	outputs                map[string]string
	wrong                  []string
	coldMs                 []float64
	coldEvaluated          []float64
	coldEstCalls           []float64
	coldNs, coldCandidates float64
}

// judge checks decisions as they arrive: tenants sharing a definition
// must decide alike, every decision must be feasible, and the decisions of
// the first qualityRounds rounds are kept for toc_ratio.
type judge struct {
	e                 *fleetEnv
	q                 *fleetQuality
	feasible, decided int
	sharedRound       int
	sharedAnswer      string
	kept              []decision
}

func newJudge(e *fleetEnv) *judge {
	return &judge{e: e, q: &fleetQuality{outputs: map[string]string{}}, sharedRound: -1}
}

func (j *judge) add(ti, round int, r serve.ReadviseResponse) {
	j.decided++
	if r.Feasible {
		j.feasible++
	}
	t := j.e.deciders[ti]
	canon := ""
	if t.shared || round < qualityRounds {
		canon = canonicalReadvise(r)
	}
	if t.shared {
		if j.sharedRound == round && j.sharedAnswer != canon {
			j.q.wrong = append(j.q.wrong, fmt.Sprintf("round %d: shared tenants decided %s and %s", round, j.sharedAnswer, canon))
		}
		j.sharedRound, j.sharedAnswer = round, canon
	}
	if round < qualityRounds {
		j.q.outputs[fmt.Sprintf("fleet/%s/%d", t.name, round)] = canon
		j.kept = append(j.kept, decision{tenant: ti, round: round, resp: r})
	}
}

// finish compares each kept decision with a cold core.OptimizeBest on the
// same window and computes the shares.
func (j *judge) finish() (*fleetQuality, error) {
	q := j.q
	cold := map[[2]int]float64{}
	var ratios []float64
	for _, dc := range j.kept {
		r := dc.resp
		t := j.e.deciders[dc.tenant]
		if r.Evaluated == 0 {
			q.wrong = append(q.wrong, fmt.Sprintf("%s round %d: no re-advise ran (drift %.3f)", t.name, dc.round, r.Drift.Divergence))
			continue
		}
		key := [2]int{t.shape, dc.round % 2}
		c, ok := cold[key]
		if !ok {
			res, took, err := coldAdvise(j.e.windows[t.shape][dc.round%2])
			if err != nil {
				return nil, err
			}
			if !res.Feasible {
				return nil, fmt.Errorf("cold advise of decision shape %d infeasible", t.shape)
			}
			c = res.TOCCents
			cold[key] = c
			q.coldMs = append(q.coldMs, ms(took))
			q.coldEvaluated = append(q.coldEvaluated, float64(res.Evaluated))
			q.coldEstCalls = append(q.coldEstCalls, float64(res.EstimatorCalls))
			q.coldNs += float64(took)
			q.coldCandidates += float64(res.Evaluated)
		}
		ratios = append(ratios, r.TOCCents/c)
	}
	q.tocRatio = mean(ratios)
	q.slaShare = float64(j.feasible) / float64(max(j.decided, 1))
	return q, nil
}

// canonicalReadvise digests a decision without its wall time and stream
// name, so tenants sharing a definition must digest alike.
func canonicalReadvise(r serve.ReadviseResponse) string {
	r.PlanMillis, r.Stream = 0, ""
	b, _ := json.Marshal(r)
	return string(b)
}

// coldAdvise runs the cold search a fresh stream would run on the window:
// a benchmark-owned manager fed only that window.
func coldAdvise(win serve.WorkloadSpec) (*core.Result, time.Duration, error) {
	mgr, err := newManager(win)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	dec, err := mgr.Advise()
	if err != nil {
		return nil, 0, err
	}
	return dec.Result, time.Since(t0), nil
}

// newManager builds a benchmark-owned online manager configured as the
// server configures a partition-granular stream, fed the spec's window.
func newManager(spec serve.WorkloadSpec) (*online.Manager, error) {
	m, err := newModel(spec, device.Box1())
	if err != nil {
		return nil, err
	}
	if err := m.partition(); err != nil {
		return nil, err
	}
	mgr, err := online.NewManager(online.Config{
		Cat: m.cat, Box: m.box, Concurrency: m.concurrency(), SLA: fleetSLA, Workers: 1, Partitioning: m.pt,
	})
	if err != nil {
		return nil, err
	}
	mgr.Observe(m.window())
	return mgr, nil
}

// mirrors are benchmark-owned managers, one per decision tenant, fed the
// same windows as the server's streams in the traced phase; their
// decisions must equal the server's.
type mirrors struct {
	e                 *fleetEnv
	mgrs              []*online.Manager
	observe, readvise []float64
	incEvaluated      []float64
	migrated, decided int
	wrong             []string
}

func newMirrors(e *fleetEnv, on bool) (*mirrors, error) {
	if !on {
		return nil, nil
	}
	mr := &mirrors{e: e}
	for _, d := range e.deciders {
		mgr, err := newManager(e.dshapes[d.shape])
		if err != nil {
			return nil, err
		}
		if _, err := mgr.Advise(); err != nil {
			return nil, err
		}
		mr.mgrs = append(mr.mgrs, mgr)
	}
	return mr, nil
}

// decide feeds tenant ti's round window to its mirror and compares the
// mirror's decision with the server's answer rv.
func (mr *mirrors) decide(tr *tracer, req int64, ti, round int, rv serve.ReadviseResponse) error {
	mgr := mr.mgrs[ti]
	win, err := newModel(mr.e.windows[mr.e.deciders[ti].shape][round%2], device.Box1())
	if err != nil {
		return err
	}
	s := tr.begin("online.observe", -1, req)
	mgr.Observe(win.window())
	_, _, err = mgr.Check()
	mr.observe = append(mr.observe, float64(tr.end(s))/float64(time.Microsecond))
	if err != nil {
		return err
	}
	s = tr.begin("online.readvise", -1, req)
	dec, err := mgr.ReAdviseWith(false,
		func(_ string, in core.Input, opts core.IncrementalOptions) (*core.Result, error) {
			c := tr.begin("core.incremental", s, req)
			defer tr.end(c)
			return core.OptimizeIncremental(in, opts)
		},
		func(_ string, in core.Input, opts core.Options) (*core.Result, error) {
			c := tr.begin("core.cold", s, req)
			defer tr.end(c)
			return core.OptimizeBest(in, opts)
		})
	mr.readvise = append(mr.readvise, ms(tr.end(s)))
	if err != nil {
		return err
	}
	mr.decided++
	if dec.ReAdvised {
		mr.migrated++
	}
	if dec.Result == nil {
		mr.wrong = append(mr.wrong, fmt.Sprintf("mirror of tenant %d round %d ran no search", ti, round))
		return nil
	}
	mr.incEvaluated = append(mr.incEvaluated, float64(dec.Result.Evaluated))
	if dec.Result.Evaluated != rv.Evaluated || dec.Result.EstimatorCalls != rv.EstimatorCalls ||
		dec.Result.TOCCents != rv.TOCCents || dec.ReAdvised != rv.ReAdvised {
		mr.wrong = append(mr.wrong, fmt.Sprintf("tenant %d round %d: mirror evaluated=%d est_calls=%d toc=%g readvised=%t, server evaluated=%d est_calls=%d toc=%g readvised=%t",
			ti, round, dec.Result.Evaluated, dec.Result.EstimatorCalls, dec.Result.TOCCents, dec.ReAdvised,
			rv.Evaluated, rv.EstimatorCalls, rv.TOCCents, rv.ReAdvised))
	}
	return nil
}

func (mr *mirrors) report(m map[string]float64) {
	m["online.observe_us"] = median(mr.observe)
	m["online.readvise_ms"] = median(mr.readvise)
	m["core.incremental_evaluated"] = mean(mr.incEvaluated)
	m["online.migrate_share"] = float64(mr.migrated) / float64(max(mr.decided, 1))
}
