package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the index of the enclosing span
// (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req int64) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// selfTimes renders each span name's total self time — its duration minus
// the part its child spans cover — in descending order.
func (t *tracer) selfTimes() []string {
	self := make(map[string]int64)
	count := make(map[string]int)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	lines := make([]string, len(names))
	for i, n := range names {
		lines[i] = fmt.Sprintf("self %-24s %10.3f ms over %d spans", n, float64(self[n])/1e6, count[n])
	}
	return lines
}

// write stores the spans as JSON under .bench_build in the working
// directory and returns the file's path.
func (t *tracer) write(cfg config) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
