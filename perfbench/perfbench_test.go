package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"

	"dotprov/internal/serve"
)

// adviseStream is the request stream the advise workload sends for seed
// over n decks.
func adviseStream(t *testing.T, seed int64, n int) []byte {
	cases, err := adviseCases()
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]int, len(cases))
	for i, c := range cases {
		weights[i] = c.weight
	}
	rng := rand.New(rand.NewSource(seed))
	var out bytes.Buffer
	for k := 0; k < n; k++ {
		for _, ci := range deck(weights, rng) {
			out.Write(cases[ci].body)
		}
	}
	return out.Bytes()
}

func TestSeedDeterminesStream(t *testing.T) {
	a, b := adviseStream(t, 7, 3), adviseStream(t, 7, 3)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different advise streams")
	}
	if bytes.Equal(a, adviseStream(t, 8, 3)) {
		t.Fatal("different seeds gave the same advise stream")
	}
	order := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		cells := make([]int, len(tpchCells))
		for i := range cells {
			cells[i] = 2
		}
		return append(rng.Perm(frameTenants), deck(cells, rng)...)
	}
	x, y, z := order(7), order(7), order(8)
	if !equalInts(x, y) || equalInts(x, z) {
		t.Fatalf("fleet/tpch orders: seed 7 gave %v and %v, seed 8 gave %v", x, y, z)
	}
	if !bytes.Equal(frameBatch(oltpSpec(1, 0), 4), frameBatch(oltpSpec(1, 0), 4)) {
		t.Fatal("frame batches are not deterministic")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMetricNames checks every metric name and unit is well formed, used
// once, and matches BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
			t.Errorf("bad or repeated metric %q unit %q", m.name, m.unit)
		}
		seen[m.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestAdviseMixHasFourShapes(t *testing.T) {
	cases, err := adviseCases()
	if err != nil {
		t.Fatal(err)
	}
	count := map[adviseShape]int{}
	total := 0
	for _, c := range cases {
		count[c.shape] += c.weight
		total += c.weight
	}
	for _, s := range []adviseShape{shapeZipf, shapeReplicated, shapeOLTP, shapeExhaustive} {
		if count[s] == 0 {
			t.Errorf("advise mix lacks shape %s", s)
		}
	}
	if 2*count[shapeZipf] <= total {
		t.Errorf("zipf is %d of %d requests, want a majority", count[shapeZipf], total)
	}
}

// TestAdviseCasesAnswer runs every distinct advise request through the
// server in-process: each is feasible, re-prices to its TOC, and the
// replicated HTAP request really places extra copies.
func TestAdviseCasesAnswer(t *testing.T) {
	cases, err := adviseCases()
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	for _, c := range cases {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.shape, rec.Code, rec.Body)
		}
		var r serve.AdviseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			t.Fatalf("%s: infeasible: %s", c.shape, r.Failure)
		}
		t.Logf("%s sla=%g units=%d copies=%d toc=%g evaluated=%d", c.shape, c.req.SLA, r.Units, r.ReplicatedCopies, r.TOCCents, r.Evaluated)
		if c.shape == shapeReplicated && r.ReplicatedCopies == 0 {
			t.Errorf("replicated HTAP request placed no extra copy")
		}
	}
}
