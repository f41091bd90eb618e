package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"dotprov/internal/device"
	"dotprov/internal/online"
	"dotprov/internal/serve"
	"dotprov/internal/workload"
)

// skewedSpec renders the workload.Skewed Zipf fixture as a wire workload
// with declared extents: what a client sends to advise it at partition
// granularity.
func skewedSpec(cfg workload.SkewedConfig) (serve.WorkloadSpec, error) {
	fx, err := workload.Skewed(cfg)
	if err != nil {
		return serve.WorkloadSpec{}, err
	}
	spec := serve.WorkloadSpec{CPUMillis: float64(fx.CPU) / float64(time.Millisecond), Concurrency: 1}
	for _, o := range fx.Cat.Objects() {
		os := serve.ObjectSpec{Name: o.Name, Kind: o.Kind.String(), SizeBytes: o.SizeBytes}
		if ix := fx.Cat.Index(o.ID); ix != nil {
			os.Table = fx.Cat.Object(ix.TableID).Name
		}
		var offset int64
		for _, e := range fx.Stats.ByObject[o.ID] {
			size := e.Pages * fx.Stats.PageBytes
			if offset+size > o.SizeBytes {
				size = o.SizeBytes - offset
			}
			offset += size
			os.Extents = append(os.Extents, serve.ExtentSpec{SizeBytes: size, Heat: e.Count})
		}
		spec.Objects = append(spec.Objects, os)
		v := fx.Profile.Get(o.ID)
		spec.IO = append(spec.IO, serve.IOSpec{
			Object:    o.Name,
			SeqRead:   v[device.SeqRead],
			RandRead:  v[device.RandRead],
			SeqWrite:  v[device.SeqWrite],
			RandWrite: v[device.RandWrite],
		})
	}
	return spec, nil
}

// oltpSpec is a three-object transactional workload (table, primary key,
// log) at a size scale and a sequential-scan share.
func oltpSpec(scale, seqShare float64) serve.WorkloadSpec {
	rand := (1 - seqShare) * 2e5 * scale
	seq := seqShare * 2e6 * scale
	return serve.WorkloadSpec{
		Objects: []serve.ObjectSpec{
			{Name: "orders", SizeBytes: int64(8e9 * scale)},
			{Name: "orders_pkey", Kind: "index", Table: "orders", SizeBytes: int64(8e8 * scale)},
			{Name: "wal", Kind: "log", SizeBytes: 1e9},
		},
		IO: []serve.IOSpec{
			{Object: "orders", SeqRead: seq, RandRead: rand},
			{Object: "orders_pkey", RandRead: rand},
			{Object: "wal", SeqWrite: 1e4 * scale},
		},
		CPUMillis:     100 * scale,
		Concurrency:   1,
		Txns:          50000,
		ElapsedMillis: 3.6e6,
	}
}

// starSpec is an eight-object DSS star (four tables with their indexes):
// 3^8 layouts, small enough for an exhaustive branch-and-bound request.
func starSpec() serve.WorkloadSpec {
	var spec serve.WorkloadSpec
	for k := 0; k < 4; k++ {
		size := int64(4e9) >> k
		t := fmt.Sprintf("dim%d", k)
		spec.Objects = append(spec.Objects,
			serve.ObjectSpec{Name: t, SizeBytes: size},
			serve.ObjectSpec{Name: t + "_pkey", Kind: "index", Table: t, SizeBytes: size / 8})
		spec.IO = append(spec.IO,
			serve.IOSpec{Object: t, SeqRead: 4e5 / float64(k+1), RandRead: 2e4 * float64(k+1)},
			serve.IOSpec{Object: t + "_pkey", RandRead: 3e4 * float64(k+1)})
	}
	spec.CPUMillis = 2000
	spec.Concurrency = 1
	return spec
}

// adviseShape names the four request shapes of the advise mix.
type adviseShape string

const (
	shapeZipf       adviseShape = "zipf"       // partition-granular Zipf fixture, box2
	shapeReplicated adviseShape = "replicated" // the same fixture, replicated on the htap box
	shapeOLTP       adviseShape = "oltp"       // object-granular OLTP profiles across SLAs and an alpha
	shapeExhaustive adviseShape = "exhaustive" // branch-and-bound over a small star
)

// adviseCase is one distinct request of the advise mix.
type adviseCase struct {
	id    int
	shape adviseShape
	req   serve.AdviseRequest
	body  []byte
	// weight is how many times the case appears in one deck.
	weight int
}

// adviseCases builds the distinct requests of the advise mix. One deck
// holds every case weight times: 12 Zipf, 2 replicated, 4 OLTP and 2
// exhaustive requests, so the Zipf fixture is the majority.
func adviseCases() ([]adviseCase, error) {
	zipf, err := skewedSpec(workload.SkewedConfig{Tables: 16, Extents: 32})
	if err != nil {
		return nil, err
	}
	reqs := []struct {
		shape  adviseShape
		weight int
		req    serve.AdviseRequest
	}{
		{shapeZipf, 12, serve.AdviseRequest{Workload: zipf, Box: "box2", SLA: 0.2, Granularity: "partition"}},
		{shapeReplicated, 2, serve.AdviseRequest{Workload: withScans(zipf, 30), Box: "htap", SLA: 0.5, Granularity: "partition", Replication: true, MaxReplicas: 2}},
		{shapeOLTP, 1, serve.AdviseRequest{Workload: oltpSpec(1, 0.1), Box: "box1", SLA: 0.25}},
		{shapeOLTP, 1, serve.AdviseRequest{Workload: oltpSpec(1.35, 0.3), Box: "box2", SLA: 0.5}},
		{shapeOLTP, 1, serve.AdviseRequest{Workload: oltpSpec(1.7, 0.5), Box: "box1", SLA: 0.75}},
		{shapeOLTP, 1, serve.AdviseRequest{Workload: oltpSpec(1, 0.2), Box: "box1", SLA: 0.5, Alpha: 0.5}},
		{shapeExhaustive, 2, serve.AdviseRequest{Workload: starSpec(), Box: "box1", SLA: 0.5, Exhaustive: true}},
	}
	cases := make([]adviseCase, len(reqs))
	for i, r := range reqs {
		body, err := json.Marshal(r.req)
		if err != nil {
			return nil, err
		}
		cases[i] = adviseCase{id: i, shape: r.shape, req: r.req, body: body, weight: r.weight}
	}
	return cases, nil
}

// deck returns the case indexes of one deck in a seeded order: every case
// weight times, shuffled by rng.
func deck(weights []int, rng *rand.Rand) []int {
	var d []int
	for i, w := range weights {
		for k := 0; k < w; k++ {
			d = append(d, i)
		}
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// fleetShape is one partition-granular tenant definition of the fleet
// workload: a Zipf fixture scaled by table count and skew.
func fleetShape(tables int, theta float64) (serve.WorkloadSpec, error) {
	return skewedSpec(workload.SkewedConfig{Tables: tables, Extents: 16, Theta: theta, SizeBytes: 6e9})
}

// scanWindow is a drifted observation of spec: the same objects with the
// tables' random reads turned into sequential scans at the given share.
func scanWindow(spec serve.WorkloadSpec, share float64) serve.WorkloadSpec {
	out := spec
	out.IO = make([]serve.IOSpec, len(spec.IO))
	for i, io := range spec.IO {
		moved := io.RandRead * share
		io.RandRead -= moved
		io.SeqRead += 8 * moved
		out.IO[i] = io
	}
	return out
}

// withScans overlays an analytic scan stream on spec: every table is also
// read sequentially, factor times its random reads — the HTAP mix where a
// second copy on the striped-HDD box pays.
func withScans(spec serve.WorkloadSpec, factor float64) serve.WorkloadSpec {
	out := spec
	out.IO = make([]serve.IOSpec, len(spec.IO))
	for i, io := range spec.IO {
		if spec.Objects[i].Kind == "table" {
			io.SeqRead = factor * io.RandRead
		}
		out.IO[i] = io
	}
	return out
}

// frameBatch encodes n binary frames of spec's observation (per-object
// counts plus extent histograms), scaled by 1/n so a batch carries one
// window's worth of I/O.
func frameBatch(spec serve.WorkloadSpec, n int) []byte {
	index := make(map[string]int, len(spec.Objects))
	for i, o := range spec.Objects {
		index[o.Name] = i
	}
	f := online.Frame{
		ExtentPages: 64,
		CPU:         time.Duration(spec.CPUMillis * float64(time.Millisecond) / float64(n)),
		Elapsed:     time.Second,
	}
	for _, io := range spec.IO {
		fo := online.FrameObject{Index: uint32(index[io.Object])}
		fo.IO[device.SeqRead] = io.SeqRead / float64(n)
		fo.IO[device.RandRead] = io.RandRead / float64(n)
		fo.IO[device.SeqWrite] = io.SeqWrite / float64(n)
		fo.IO[device.RandWrite] = io.RandWrite / float64(n)
		if exts := spec.Objects[fo.Index].Extents; len(exts) > 0 {
			for _, e := range exts[:min(len(exts), 8)] {
				fo.Extents = append(fo.Extents, e.Heat/float64(n))
			}
		}
		f.Objects = append(f.Objects, fo)
	}
	frames := make([]online.Frame, n)
	for i := range frames {
		frames[i] = f
	}
	return online.EncodeFrames(frames)
}
