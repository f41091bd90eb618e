package main

import (
	"fmt"
	"math"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/online"
	"dotprov/internal/provision"
	"dotprov/internal/serve"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

// model is a serve.WorkloadSpec lowered onto the in-process model through
// the public catalog/workload/core API, independently of the server. The
// benchmark uses it to re-price every layout the server returns and, in
// the traced run, to time each layer's public call on the request's input.
type model struct {
	spec    serve.WorkloadSpec
	cat     *catalog.Catalog
	profile iosim.Profile
	box     *device.Box
	pt      *catalog.Partitioning // nil at object granularity
}

// newModel builds the catalog and profile of spec on box, in declaration
// order (so object IDs match the server's).
func newModel(spec serve.WorkloadSpec, box *device.Box) (*model, error) {
	cat := catalog.New()
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	for _, o := range spec.Objects {
		var id catalog.ObjectID
		switch o.Kind {
		case "", "table":
			t, err := cat.CreateTable(o.Name, schema, nil)
			if err != nil {
				return nil, err
			}
			id = t.ID
		case "index":
			t, err := cat.TableByName(o.Table)
			if err != nil {
				return nil, err
			}
			ix, err := cat.CreateIndex(o.Name, t.ID, []string{"k"}, false)
			if err != nil {
				return nil, err
			}
			id = ix.ID
		case "temp", "log":
			kind := catalog.KindTemp
			if o.Kind == "log" {
				kind = catalog.KindLog
			}
			aux, err := cat.CreateAux(o.Name, kind, o.SizeBytes)
			if err != nil {
				return nil, err
			}
			id = aux.ID
		default:
			return nil, fmt.Errorf("object %q: unknown kind %q", o.Name, o.Kind)
		}
		cat.SetSize(id, o.SizeBytes)
	}
	return &model{spec: spec, cat: cat, profile: specProfile(cat, spec), box: box}, nil
}

// specProfile lowers the spec's I/O counts onto cat's object IDs.
func specProfile(cat *catalog.Catalog, spec serve.WorkloadSpec) iosim.Profile {
	p := iosim.NewProfile()
	for _, io := range spec.IO {
		id := cat.Lookup(io.Object).ID
		p.Add(id, device.SeqRead, io.SeqRead)
		p.Add(id, device.RandRead, io.RandRead)
		p.Add(id, device.SeqWrite, io.SeqWrite)
		p.Add(id, device.RandWrite, io.RandWrite)
	}
	return p
}

// partition builds the heat-based partitioning from the declared extents
// with the server's default options.
func (m *model) partition() error {
	stats := catalog.ExtentStats{PageBytes: catalog.DefaultPageBytes, ByObject: make(map[catalog.ObjectID][]catalog.Extent)}
	for _, o := range m.spec.Objects {
		if len(o.Extents) == 0 {
			continue
		}
		id := m.cat.Lookup(o.Name).ID
		var offset, page int64
		for _, e := range o.Extents {
			offset += e.SizeBytes
			end := (offset + stats.PageBytes - 1) / stats.PageBytes
			exts := stats.ByObject[id]
			if end <= page {
				exts[len(exts)-1].Count += e.Heat
				continue
			}
			stats.ByObject[id] = append(exts, catalog.Extent{Pages: end - page, Count: e.Heat})
			page = end
		}
	}
	pt, err := catalog.BuildPartitioning(m.cat, stats, catalog.PartitionOptions{})
	if err != nil {
		return err
	}
	m.pt = pt
	return nil
}

func (m *model) concurrency() int {
	if m.spec.Concurrency < 1 {
		return 1
	}
	return m.spec.Concurrency
}

// estimator is the object-granular, uncompiled estimator of the spec: the
// test-run throughput path for transactional specs, observed counts
// otherwise.
func (m *model) estimator() (workload.Estimator, error) {
	cpu := time.Duration(m.spec.CPUMillis * float64(time.Millisecond))
	if m.spec.Txns > 0 {
		profiled := catalog.NewUniformLayout(m.cat, m.box.MostExpensive().Class)
		return workload.NewProfileEstimator(m.box, m.concurrency(), m.profile, cpu, workload.RunStats{
			Txns:    m.spec.Txns,
			Elapsed: time.Duration(m.spec.ElapsedMillis * float64(time.Millisecond)),
		}, profiled)
	}
	return &workload.ObservedEstimator{
		Box:         m.box,
		Concurrency: m.concurrency(),
		PerQuery:    []workload.QueryObservation{{Profile: m.profile, CPU: cpu}},
	}, nil
}

// input assembles the object-granular core.Input around a given
// (compiled or plain) estimator.
func (m *model) input(est workload.Estimator) core.Input {
	ps := core.NewProfileSet()
	ps.SetSingle(m.profile)
	return core.Input{Cat: m.cat, Box: m.box, Est: est, Profiles: ps, Concurrency: m.concurrency(), Workers: 1}
}

// searchSpace returns the catalog and plain estimator layouts are priced
// on: the unit catalog and the apportioned estimator at partition
// granularity, the object catalog otherwise.
func (m *model) searchSpace() (*catalog.Catalog, workload.Estimator, error) {
	est, err := m.estimator()
	if err != nil {
		return nil, nil, err
	}
	if m.pt == nil {
		return m.cat, est, nil
	}
	uest, _, err := workload.PartitionEstimator(est, m.pt)
	if err != nil {
		return nil, nil, err
	}
	return m.pt.UnitCatalog(), uest, nil
}

// pricing is a re-estimated layout: its TOC by the catalog/device cost
// functions, and whether it meets the relative SLA against the estimated
// all-most-expensive layout L0.
type pricing struct {
	toc    float64
	l0TOC  float64
	meets  bool
	copies int
}

// priceLayout re-estimates a returned layout (unit or object names ->
// copy classes) independently of the search that produced it.
func (m *model) priceLayout(named map[string][]string, sla float64) (pricing, error) {
	cat, est, err := m.searchSpace()
	if err != nil {
		return pricing{}, err
	}
	ids := make(map[string]catalog.ObjectID, cat.NumObjects())
	for _, o := range cat.Objects() {
		ids[o.Name] = o.ID
	}
	set := make(catalog.SetLayout, len(named))
	replicated := false
	for name, classes := range named {
		id, ok := ids[name]
		if !ok {
			return pricing{}, fmt.Errorf("layout names unknown unit %q", name)
		}
		var cs device.ClassSet
		for _, c := range classes {
			cls, err := device.ParseClass(c)
			if err != nil {
				return pricing{}, err
			}
			cs = cs.Add(cls)
		}
		if len(classes) > 1 {
			replicated = true
		}
		set[id] = cs
	}
	if len(set) != cat.NumObjects() {
		return pricing{}, fmt.Errorf("layout places %d of %d units", len(set), cat.NumObjects())
	}
	l0 := catalog.NewUniformLayout(cat, m.box.MostExpensive().Class)
	base, err := est.Estimate(l0)
	if err != nil {
		return pricing{}, err
	}
	l0TOC, err := workload.TOCCents(base, l0, cat, m.box)
	if err != nil {
		return pricing{}, err
	}
	var got workload.Metrics
	var perHour float64
	if replicated {
		sest, ok := workload.NewSetEstimator(est)
		if !ok {
			return pricing{}, fmt.Errorf("estimator %T has no replica form", est)
		}
		masks := make(catalog.Layout, len(set))
		for id, cs := range set {
			masks[id] = device.Class(cs)
		}
		if got, err = sest.Estimate(masks); err != nil {
			return pricing{}, err
		}
		if err := set.CheckCapacity(cat, m.box); err != nil {
			return pricing{}, err
		}
		perHour, err = set.CostCentsPerHour(cat, m.box)
	} else {
		single, _ := set.SingleLayout()
		if got, err = est.Estimate(single); err != nil {
			return pricing{}, err
		}
		if err := single.CheckCapacity(cat, m.box); err != nil {
			return pricing{}, err
		}
		perHour, err = single.CostCentsPerHour(cat, m.box)
	}
	if err != nil {
		return pricing{}, err
	}
	toc := perHour * got.Elapsed.Hours()
	if got.Throughput > 0 {
		toc = perHour / got.Throughput
	}
	cons := workload.Constraints{Relative: sla, Baseline: base}
	maxCopies := 0
	for _, cs := range set {
		if n := cs.Count(); n > maxCopies {
			maxCopies = n
		}
	}
	return pricing{toc: toc, l0TOC: l0TOC, meets: cons.Satisfied(got), copies: maxCopies}, nil
}

// sameFloat reports whether two TOCs agree to rounding: the benchmark's
// re-estimate sums the same terms as the search, possibly in another
// order.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// layoutOf maps a single-class answer (unit or object names -> class) onto
// cat's IDs.
func layoutOf(cat *catalog.Catalog, named map[string]string) (catalog.Layout, error) {
	l := make(catalog.Layout, len(named))
	for name, c := range named {
		o := cat.Lookup(name)
		if o == nil {
			return nil, fmt.Errorf("layout names unknown object %q", name)
		}
		cls, err := device.ParseClass(c)
		if err != nil {
			return nil, err
		}
		l[o.ID] = cls
	}
	return l, nil
}

// window is the spec's observation as an online window.
func (m *model) window() online.Window {
	return online.Window{
		Profile: m.profile,
		CPU:     time.Duration(m.spec.CPUMillis * float64(time.Millisecond)),
		Elapsed: time.Duration(m.spec.ElapsedMillis * float64(time.Millisecond)),
		Txns:    m.spec.Txns,
	}
}

// discreteTOC re-prices a single-class answer under the §5.2
// discrete-sized cost model at alpha.
func (m *model) discreteTOC(named map[string]string, alpha float64) (float64, error) {
	cat, est, err := m.searchSpace()
	if err != nil {
		return 0, err
	}
	cost, _, err := provision.DiscreteCostModels(cat, m.box, alpha)
	if err != nil {
		return 0, err
	}
	l, err := layoutOf(cat, named)
	if err != nil {
		return 0, err
	}
	perHour, err := cost(l)
	if err != nil {
		return 0, err
	}
	got, err := est.Estimate(l)
	if err != nil {
		return 0, err
	}
	if got.Throughput > 0 {
		return perHour / got.Throughput, nil
	}
	return perHour * got.Elapsed.Hours(), nil
}
