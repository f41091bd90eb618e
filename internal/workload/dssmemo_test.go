package workload_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/plan"
	"dotprov/internal/profiler"
	"dotprov/internal/tpch"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// replanOracle is the DSS estimator without its memo: every query is
// planned against the whole layout on every call.
type replanOracle struct {
	db *engine.DB
	w  *workload.DSS
}

func (o replanOracle) Estimate(l catalog.Layout) (workload.Metrics, error) {
	m := workload.Metrics{PerQuery: make([]time.Duration, 0, len(o.w.Queries))}
	for _, q := range o.w.Queries {
		pl, err := o.db.PlanUnder(q, l)
		if err != nil {
			return workload.Metrics{}, err
		}
		t := pl.Est.Time()
		m.PerQuery = append(m.PerQuery, t)
		m.Elapsed += t
	}
	return m, nil
}

// tpchFixture is a TPC-H database at a small test scale with its workload.
type tpchFixture struct {
	db *engine.DB
	w  *workload.DSS
}

var (
	tpchOnce     sync.Once
	tpchFixtures map[string]*tpchFixture
	tpchErr      error
)

// tpchDBs builds, once per test binary, the §4.4.3 subset and the
// modified TPC-H on Box 1 and Box 2, keyed "subset/Box 1" and so on.
// Tests must not change their engine state.
func tpchDBs(t *testing.T) map[string]*tpchFixture {
	t.Helper()
	tpchOnce.Do(func() {
		tpchFixtures = map[string]*tpchFixture{}
		cfg := tpch.Config{ScaleFactor: 0.001, Seed: 7}
		for _, box := range []*device.Box{device.Box1(), device.Box2()} {
			for _, subset := range []bool{true, false} {
				f, err := buildTPCH(box, cfg, subset)
				if err != nil {
					tpchErr = err
					return
				}
				name := "modified"
				if subset {
					name = "subset"
				}
				tpchFixtures[name+"/"+box.Name] = f
			}
		}
	})
	if tpchErr != nil {
		t.Fatal(tpchErr)
	}
	return tpchFixtures
}

func buildTPCH(box *device.Box, cfg tpch.Config, subset bool) (*tpchFixture, error) {
	db := engine.New(box, engine.DefaultPoolPages)
	build, w := tpch.Build, tpch.ModifiedWorkload(cfg, cfg.Seed+1)
	if subset {
		build, w = tpch.BuildSubset, tpch.SubsetWorkload(cfg, cfg.Seed+1)
	}
	if err := build(db, cfg); err != nil {
		return nil, err
	}
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		return nil, err
	}
	return &tpchFixture{db: db, w: w}, nil
}

func randomLayout(rng *rand.Rand, cat *catalog.Catalog, classes []device.Class) catalog.Layout {
	l := catalog.Layout{}
	for _, o := range cat.Objects() {
		l[o.ID] = classes[rng.Intn(len(classes))]
	}
	return l
}

func sameMetrics(t *testing.T, what string, got, want workload.Metrics) {
	t.Helper()
	if got.Elapsed != want.Elapsed || !reflect.DeepEqual(got.PerQuery, want.PerQuery) {
		t.Fatalf("%s: memoized estimate %v %v, re-planned %v %v", what, got.Elapsed, got.PerQuery, want.Elapsed, want.PerQuery)
	}
}

// Property: the memoized DSS estimator is bit-identical to re-planning
// every query, on random layouts, on both paper boxes, for the subset
// (dense memo tables) and the modified workload (whose wide footprints use
// the sparse memo), and stays so when the same estimator is asked again.
func TestDSSEstimatorMatchesReplanOracle(t *testing.T) {
	fixtures := tpchDBs(t)
	for seed, name := range []string{"subset/Box 1", "subset/Box 2", "modified/Box 1", "modified/Box 2"} {
		f := fixtures[name]
		t.Run(name, func(t *testing.T) {
			est := f.w.Estimator(f.db)
			oracle := replanOracle{db: f.db, w: f.w}
			rng := rand.New(rand.NewSource(int64(seed + 1)))
			layouts := make([]catalog.Layout, 200)
			wants := make([]workload.Metrics, len(layouts))
			for i := range layouts {
				layouts[i] = randomLayout(rng, f.db.Cat, f.db.Box.Classes())
				var err error
				if wants[i], err = oracle.Estimate(layouts[i]); err != nil {
					t.Fatal(err)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for i, l := range layouts {
					want := wants[i]
					got, err := est.Estimate(l)
					if err != nil {
						t.Fatal(err)
					}
					sameMetrics(t, fmt.Sprintf("pass %d layout %d", pass, i), got, want)
				}
			}
		})
	}
}

// Goroutines sharing a fresh estimator race to install its memo and to
// fill the same dense and sparse slots; every estimate still matches the
// re-planning oracle.
func TestDSSEstimatorConcurrent(t *testing.T) {
	fixtures := tpchDBs(t)
	for _, name := range []string{"subset/Box 1", "modified/Box 2"} {
		f := fixtures[name]
		t.Run(name, func(t *testing.T) {
			oracle := replanOracle{db: f.db, w: f.w}
			rng := rand.New(rand.NewSource(3))
			layouts := make([]catalog.Layout, 24)
			wants := make([]workload.Metrics, len(layouts))
			for i := range layouts {
				layouts[i] = randomLayout(rng, f.db.Cat, f.db.Box.Classes())
				var err error
				if wants[i], err = oracle.Estimate(layouts[i]); err != nil {
					t.Fatal(err)
				}
			}
			est := f.w.Estimator(f.db)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for j := range layouts {
						i := (j + g*len(layouts)/4) % len(layouts)
						got, err := est.Estimate(layouts[i])
						if err != nil {
							t.Error(err)
							return
						}
						if got.Elapsed != wants[i].Elapsed || !reflect.DeepEqual(got.PerQuery, wants[i].PerQuery) {
							t.Errorf("goroutine %d layout %d: memoized estimate differs from re-planning", g, i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// Layouts the memo cannot key fail exactly like the planner, nothing
// about them is memoized, and a valid layout right after still matches.
func TestDSSEstimatorErrorParity(t *testing.T) {
	fixtures := tpchDBs(t)
	for _, name := range []string{"subset/Box 1", "modified/Box 2"} {
		f := fixtures[name]
		t.Run(name, func(t *testing.T) {
			est := f.w.Estimator(f.db)
			oracle := replanOracle{db: f.db, w: f.w}
			valid := catalog.NewUniformLayout(f.db.Cat, device.HSSD)
			missing := valid.Clone()
			delete(missing, f.db.Cat.Objects()[0].ID)
			absent := valid.Clone()
			// Neither paper box carries both HDD and HDD RAID 0.
			for _, c := range []device.Class{device.HDD, device.HDDRAID0} {
				if f.db.Box.Device(c) == nil {
					absent[f.db.Cat.Objects()[0].ID] = c
				}
			}
			for _, bad := range []catalog.Layout{missing, absent} {
				_, wantErr := oracle.Estimate(bad)
				// Twice: a failed plan leaves nothing the repeat could hit.
				for i := 0; i < 2; i++ {
					_, gotErr := est.Estimate(bad)
					if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("error parity: memoized %v, re-planned %v", gotErr, wantErr)
					}
				}
				want, _ := oracle.Estimate(valid)
				got, err := est.Estimate(valid)
				if err != nil {
					t.Fatal(err)
				}
				sameMetrics(t, "after an error", got, want)
			}
		})
	}
}

// The memo belongs to one optimizer generation: after SetConcurrency
// changes the optimizer's concurrency in place, and after a re-Analyze
// swaps the optimizer for one with new statistics, Estimate matches a
// fresh re-plan rather than a stale memo entry.
func TestDSSEstimatorInvalidation(t *testing.T) {
	db := engine.New(device.Box1(), 64)
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	)
	if _, err := db.CreateTable("t", sch, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	load := func(from, to int) {
		for i := from; i < to; i++ {
			if err := db.Load("t", types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(0, 2000)
	l := catalog.NewUniformLayout(db.Cat, device.HDDRAID0)
	if err := db.SetLayout(l); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	q := &plan.Query{Name: "range", Tables: []string{"t"},
		Preds: []plan.Pred{{Table: "t", Column: "id", Op: plan.Lt, Lo: types.NewInt(40)}}}
	w := &workload.DSS{Name: "w", Queries: []*plan.Query{q}}
	est := w.Estimator(db)
	oracle := replanOracle{db: db, w: w}
	check := func(what string) workload.Metrics {
		t.Helper()
		want, err := oracle.Estimate(l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.Estimate(l)
		if err != nil {
			t.Fatal(err)
		}
		sameMetrics(t, what, got, want)
		return got
	}
	before := check("initial")
	db.SetConcurrency(4)
	if after := check("after SetConcurrency(4)"); after.Elapsed == before.Elapsed {
		t.Fatal("fixture too weak: concurrency 4 did not change the estimate")
	}
	before = check("repeat at concurrency 4")
	load(2000, 20000)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if after := check("after re-Analyze"); after.Elapsed == before.Elapsed {
		t.Fatal("fixture too weak: new statistics did not change the estimate")
	}
}

// sec443 runs a cold §4.4.3 exhaustive search (subset, Box 1, SLA 0.5)
// with the given estimator.
func sec443(t *testing.T, f *tpchFixture, est workload.Estimator, workers int) *core.Result {
	t.Helper()
	ps, err := profiler.ProfileDSSEstimates(f.db, f.w)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Input{Cat: f.db.Cat, Box: f.db.Box, Est: est, Profiles: ps, Concurrency: 1, Workers: workers}
	res, err := core.Exhaustive(in, core.Options{RelativeSLA: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameSearch(t *testing.T, cat *catalog.Catalog, got, want *core.Result) {
	t.Helper()
	if !got.Layout.Equal(want.Layout) || got.TOCCents != want.TOCCents || got.Feasible != want.Feasible ||
		got.Evaluated != want.Evaluated || got.EstimatorCalls != want.EstimatorCalls {
		t.Fatalf("search differs:\n got %s toc=%v feasible=%t evaluated=%d calls=%d\nwant %s toc=%v feasible=%t evaluated=%d calls=%d",
			got.Layout.String(cat), got.TOCCents, got.Feasible, got.Evaluated, got.EstimatorCalls,
			want.Layout.String(cat), want.TOCCents, want.Feasible, want.Evaluated, want.EstimatorCalls)
	}
}

// A cold §4.4.3 exhaustive search plans each query once per projection of
// the 3^8 layouts onto its footprint — Σ_q 3^{k_q} = 5,913 plans instead
// of 33 × 6,561 = 216,513 — and finds exactly what re-planning finds.
func TestSec443ExhaustivePlanCount(t *testing.T) {
	f := tpchDBs(t)["subset/Box 1"]
	want := 0
	for _, q := range f.w.Queries {
		objs, err := f.db.Optimizer().Footprint(q)
		if err != nil {
			t.Fatal(err)
		}
		n := 1
		for range objs {
			n *= len(f.db.Box.Classes())
		}
		want += n
	}
	if want != 5913 {
		t.Fatalf("subset footprints give %d projections, want 5913", want)
	}
	est := f.w.Estimator(f.db)
	res := sec443(t, f, est, 1)
	if res.Evaluated != 6561 {
		t.Fatalf("evaluated %d layouts, want 3^8 = 6561", res.Evaluated)
	}
	if got := workload.MemoEntries(est); got != want {
		t.Fatalf("memo holds %d plan times after a cold search, want %d", got, want)
	}
	sameSearch(t, f.db.Cat, res, sec443(t, f, replanOracle{db: f.db, w: f.w}, 2))
}

// The §4.4.3 exhaustive search on the DSS estimator is byte-identical
// whether the memo fills from one worker or from four racing ones.
func TestSec443ExhaustiveWorkersParity(t *testing.T) {
	f := tpchDBs(t)["subset/Box 1"]
	one := sec443(t, f, f.w.Estimator(f.db), 1)
	four := sec443(t, f, f.w.Estimator(f.db), 4)
	sameSearch(t, f.db.Cat, four, one)
}
