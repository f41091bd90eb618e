package optimizer

import (
	"fmt"
	"slices"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/plan"
)

// Optimizer plans queries against a box of storage devices. Tables register
// their statistics (engine.Analyze feeds them); Plan is then a pure reader
// of those statistics — all per-call state lives in the planner — so it is
// safe for repeated AND concurrent use across candidate layouts (the
// search engine's worker pool relies on this). AddTable must not be called
// concurrently with Plan.
type Optimizer struct {
	Box         *device.Box
	Concurrency int
	Tables      map[string]*TableInfo
}

// New creates an optimizer for a box at a given degree of concurrency.
func New(box *device.Box, concurrency int) *Optimizer {
	if concurrency < 1 {
		concurrency = 1
	}
	return &Optimizer{Box: box, Concurrency: concurrency, Tables: make(map[string]*TableInfo)}
}

// AddTable registers or replaces a table's statistics.
func (o *Optimizer) AddTable(ti *TableInfo) { o.Tables[ti.Name] = ti }

// planner is the per-call state: the candidate layout and the resolved
// service times for every object the query can touch.
type planner struct {
	o      *Optimizer
	layout catalog.Layout
	svc    map[catalog.ObjectID]*[device.NumIOTypes]time.Duration
}

func (p *planner) resolve(obj catalog.ObjectID) (*[device.NumIOTypes]time.Duration, error) {
	if s, ok := p.svc[obj]; ok {
		return s, nil
	}
	cls, ok := p.layout[obj]
	if !ok {
		return nil, fmt.Errorf("optimizer: object %d not placed by layout", obj)
	}
	d := p.o.Box.Device(cls)
	if d == nil {
		return nil, fmt.Errorf("optimizer: layout places object %d on class %v absent from box", obj, cls)
	}
	var times [device.NumIOTypes]time.Duration
	for _, t := range device.AllIOTypes {
		times[t] = d.ServiceTime(t, p.o.Concurrency)
	}
	p.svc[obj] = &times
	return &times, nil
}

// cand is a costed sub-plan during enumeration.
type cand struct {
	node    plan.Node
	rows    float64
	profile iosim.Profile
	io      time.Duration
	cpu     time.Duration
	tables  map[string]bool
}

func (c *cand) time() time.Duration { return c.io + c.cpu }

func (c *cand) clone() *cand {
	t := make(map[string]bool, len(c.tables))
	for k := range c.tables {
		t[k] = true
	}
	return &cand{
		node: c.node, rows: c.rows, profile: c.profile.Clone(),
		io: c.io, cpu: c.cpu, tables: t,
	}
}

// charge adds n I/Os of type t on obj to the candidate's profile and time.
func (p *planner) charge(c *cand, obj catalog.ObjectID, t device.IOType, n float64) {
	if n <= 0 {
		return
	}
	times, _ := p.resolve(obj) // resolved earlier; see Plan preflight
	c.profile.Add(obj, t, n)
	c.io += time.Duration(n * float64(times[t]))
}

func allCols(ti *TableInfo) []plan.ColRef {
	out := make([]plan.ColRef, 0, ti.Schema.Len())
	for _, col := range ti.Schema.Columns {
		out = append(out, plan.ColRef{Table: ti.Name, Column: col.Name})
	}
	return out
}

// predSel estimates the selectivity of one predicate.
func predSel(ti *TableInfo, pr plan.Pred) float64 {
	st := ti.Col(pr.Column)
	switch pr.Op {
	case plan.Eq:
		return st.eqSelectivity()
	case plan.Lt, plan.Le:
		if st.HasRange {
			if f := st.rangeFraction(st.Min, pr.Lo); f >= 0 {
				return f
			}
		}
		return defaultRangeSel
	case plan.Gt, plan.Ge:
		if st.HasRange {
			if f := st.rangeFraction(pr.Lo, st.Max); f >= 0 {
				return f
			}
		}
		return defaultRangeSel
	case plan.Between:
		if st.HasRange {
			if f := st.rangeFraction(pr.Lo, pr.Hi); f >= 0 {
				return f
			}
		}
		return defaultBetweenSel
	default:
		return 1
	}
}

func combinedSel(ti *TableInfo, preds []plan.Pred) float64 {
	s := 1.0
	for _, pr := range preds {
		s *= predSel(ti, pr)
	}
	return clampSel(s)
}

// bestAccessPath picks the cheapest way to produce a table's filtered rows:
// a sequential scan, or an index range scan on any index whose leading
// column carries a predicate. The choice depends on the layout through the
// device service times (paper §3.5: the seq-vs-index decision flips between
// storage classes).
func (p *planner) bestAccessPath(ti *TableInfo, preds []plan.Pred) *cand {
	outRows := ti.Rows * combinedSel(ti, preds)

	// Sequential scan.
	seq := &cand{
		profile: iosim.NewProfile(),
		rows:    outRows,
		tables:  map[string]bool{ti.Name: true},
	}
	p.charge(seq, ti.ID, device.SeqRead, ti.Pages)
	seq.cpu = time.Duration(ti.Rows) * (plan.CPUTupleTime + time.Duration(len(preds))*plan.CPUPredTime)
	seq.node = &plan.SeqScan{
		Table: ti.Name, TableID: ti.ID, Filter: preds, Cols: allCols(ti), Rows: outRows,
	}

	best := seq
	for i, pr := range preds {
		ix := ti.IndexOn(pr.Column)
		if ix == nil {
			continue
		}
		rangeSel := clampSel(predSel(ti, pr))
		matched := ti.Rows * rangeSel
		c := &cand{
			profile: iosim.NewProfile(),
			rows:    outRows,
			tables:  map[string]bool{ti.Name: true},
		}
		// Index descent plus the leaf pages the range covers.
		p.charge(c, ix.ID, device.RandRead, ix.Height+ix.LeafPages*rangeSel)
		// One random heap fetch per matching entry (tables are unclustered;
		// the paper shuffles them explicitly, §4.4).
		p.charge(c, ti.ID, device.RandRead, matched)
		residual := make([]plan.Pred, 0, len(preds)-1)
		residual = append(residual, preds[:i]...)
		residual = append(residual, preds[i+1:]...)
		c.cpu = time.Duration(matched) * (plan.CPUIndexTime + plan.CPUTupleTime +
			time.Duration(len(residual))*plan.CPUPredTime)
		c.node = &plan.IndexScan{
			Table: ti.Name, TableID: ti.ID,
			Index: ix.Name, IndexID: ix.ID,
			Column: pr.Column, Op: pr.Op, Lo: pr.Lo, Hi: pr.Hi,
			Residual: residual, Cols: allCols(ti), Rows: outRows,
		}
		if c.time() < best.time() {
			best = c
		}
	}
	return best
}

// joinSelectivity follows the classical 1/max(ndv_left, ndv_right) rule.
func (p *planner) joinSelectivity(lt *TableInfo, lcol string, rt *TableInfo, rcol string) float64 {
	ln := lt.Col(lcol).NDV
	rn := rt.Col(rcol).NDV
	n := ln
	if rn > n {
		n = rn
	}
	if n < 1 {
		n = 1
	}
	return clampSel(1 / n)
}

// connector finds a join predicate linking the joined set to table name,
// returning the column on the joined side and the column on the new side.
func connector(q *plan.Query, joined map[string]bool, name string) (outer plan.ColRef, inner string, ok bool) {
	for _, j := range q.Joins {
		if joined[j.LeftTable] && j.RightTable == name {
			return plan.ColRef{Table: j.LeftTable, Column: j.LeftColumn}, j.RightColumn, true
		}
		if joined[j.RightTable] && j.LeftTable == name {
			return plan.ColRef{Table: j.RightTable, Column: j.RightColumn}, j.LeftColumn, true
		}
	}
	return plan.ColRef{}, "", false
}

// Footprint lists the objects a plan for q can charge I/O to: each of
// q.Tables' heaps followed by its indexes, in q.Tables order, each object
// once. A plan's cost depends on the layout only through the classes of
// these objects, so two layouts that agree on them yield the same plan.
// When a table has no statistics, Footprint returns the objects of the
// tables before it together with the error.
func (o *Optimizer) Footprint(q *plan.Query) ([]catalog.ObjectID, error) {
	var objs []catalog.ObjectID
	add := func(id catalog.ObjectID) {
		if !slices.Contains(objs, id) {
			objs = append(objs, id)
		}
	}
	for _, name := range q.Tables {
		ti, ok := o.Tables[name]
		if !ok {
			return objs, fmt.Errorf("optimizer: no statistics for table %q (run Analyze)", name)
		}
		add(ti.ID)
		for _, ix := range ti.Indexes {
			add(ix.ID)
		}
	}
	return objs, nil
}

// Plan produces the cheapest physical plan for the query under the given
// layout, together with its Estimate (rows, per-object I/O profile, I/O and
// CPU time).
func (o *Optimizer) Plan(q *plan.Query, layout catalog.Layout) (*plan.Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &planner{o: o, layout: layout, svc: make(map[catalog.ObjectID]*[device.NumIOTypes]time.Duration)}
	// Preflight: resolve every object the query may touch so that charge()
	// cannot encounter an unplaced object mid-enumeration. The objects a
	// footprint lists before a table without statistics resolve first, so
	// the first error is the one a table-by-table walk would meet.
	objs, ferr := o.Footprint(q)
	for _, id := range objs {
		if _, err := p.resolve(id); err != nil {
			return nil, err
		}
	}
	if ferr != nil {
		return nil, ferr
	}

	// Best access path per table.
	paths := make(map[string]*cand, len(q.Tables))
	for _, name := range q.Tables {
		ti := o.Tables[name]
		paths[name] = p.bestAccessPath(ti, q.TablePreds(name))
	}

	// Greedy left-deep join enumeration: start from the most selective
	// table, then repeatedly attach the connected table that minimises the
	// accumulated time, choosing HJ orientation or INLJ per step.
	var cur *cand
	startName := ""
	for _, name := range q.Tables {
		c := paths[name]
		if cur == nil || c.rows < cur.rows || (c.rows == cur.rows && c.time() < cur.time()) {
			cur = c
			startName = name
		}
	}
	cur = cur.clone()
	remaining := make(map[string]bool, len(q.Tables))
	for _, name := range q.Tables {
		if name != startName {
			remaining[name] = true
		}
	}

	for len(remaining) > 0 {
		var bestNext *cand
		bestTable := ""
		for _, name := range q.Tables {
			if !remaining[name] {
				continue
			}
			outerCol, innerCol, ok := connector(q, cur.tables, name)
			if !ok {
				continue
			}
			if c := p.joinCandidates(q, cur, name, outerCol, innerCol); c != nil {
				if bestNext == nil || c.time() < bestNext.time() {
					bestNext = c
					bestTable = name
				}
			}
		}
		if bestNext == nil {
			return nil, fmt.Errorf("optimizer: query %q has a disconnected join graph", q.Name)
		}
		cur = bestNext
		delete(remaining, bestTable)
	}

	root := cur.node
	rows := cur.rows
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		groups := 1.0
		for _, g := range q.GroupBy {
			groups *= o.Tables[g.Table].Col(g.Column).NDV
		}
		if groups > rows {
			groups = rows
		}
		if groups < 1 {
			groups = 1
		}
		cur.cpu += time.Duration(rows) * (plan.CPUAggTime*time.Duration(max1(len(q.Aggs))) + plan.CPUHashTime)
		root = &plan.AggNode{Input: root, GroupBy: q.GroupBy, Aggs: q.Aggs, Rows: groups}
		rows = groups
	}
	if q.Limit > 0 {
		root = &plan.LimitNode{Input: root, N: q.Limit}
		if float64(q.Limit) < rows {
			rows = float64(q.Limit)
		}
	}

	return &plan.Plan{
		Query: q,
		Root:  root,
		Est: plan.Estimate{
			Rows:    rows,
			Profile: cur.profile,
			IOTime:  cur.io,
			CPUTime: cur.cpu,
		},
	}, nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// joinCandidates costs the ways to attach table name to the current result
// and returns the cheapest: hash join (either orientation) or indexed
// nested-loop join when the new table has an index on its join column.
func (p *planner) joinCandidates(q *plan.Query, cur *cand, name string, outerCol plan.ColRef, innerCol string) *cand {
	o := p.o
	ti := o.Tables[name]
	path := paths1(p, q, name)
	outerTi := o.Tables[outerCol.Table]
	jsel := p.joinSelectivity(outerTi, outerCol.Column, ti, innerCol)
	outRows := cur.rows * path.rows * jsel
	if outRows < 0.01 {
		outRows = 0.01
	}

	// Hash join, build on the new table's filtered rows.
	mk := func() *cand {
		c := cur.clone()
		c.profile.Merge(path.profile)
		c.io += path.io
		c.cpu += path.cpu
		c.tables[name] = true
		c.rows = outRows
		return c
	}
	hj1 := mk()
	hj1.cpu += time.Duration(path.rows)*plan.CPUHashTime + // build
		time.Duration(cur.rows)*plan.CPUHashTime + // probe
		time.Duration(outRows)*plan.CPUTupleTime
	hj1.node = &plan.Join{
		Algo: plan.HashJoin, Outer: cur.node, OuterCol: outerCol,
		Inner: path.node, InnerCol: plan.ColRef{Table: name, Column: innerCol},
		Rows: outRows,
	}

	// Hash join, build on the current result (useful when the accumulated
	// side is smaller than the new table).
	hj2 := mk()
	hj2.cpu += time.Duration(cur.rows)*plan.CPUHashTime +
		time.Duration(path.rows)*plan.CPUHashTime +
		time.Duration(outRows)*plan.CPUTupleTime
	hj2.node = &plan.Join{
		Algo: plan.HashJoin, Outer: path.node, OuterCol: plan.ColRef{Table: name, Column: innerCol},
		Inner: cur.node, InnerCol: outerCol,
		Rows: outRows,
	}

	best := hj1
	if hj2.time() < best.time() {
		best = hj2
	}

	// Indexed nested-loop join: probe the new table's index on the join
	// column once per outer row.
	if ix := ti.IndexOn(innerCol); ix != nil {
		preds := q.TablePreds(name)
		matchesPerProbe := ti.Rows * jsel
		inlj := cur.clone()
		inlj.tables[name] = true
		inlj.rows = outRows
		probes := cur.rows
		p.charge(inlj, ix.ID, device.RandRead, probes*ix.Height)
		p.charge(inlj, ti.ID, device.RandRead, probes*matchesPerProbe)
		inlj.cpu += time.Duration(probes) * plan.CPUIndexTime
		inlj.cpu += time.Duration(probes*matchesPerProbe) *
			(plan.CPUTupleTime + time.Duration(len(preds))*plan.CPUPredTime)
		inlj.node = &plan.Join{
			Algo: plan.IndexNLJoin, Outer: cur.node, OuterCol: outerCol,
			InnerTable: name, InnerTableID: ti.ID,
			InnerIndex: ix.Name, InnerIndexID: ix.ID,
			InnerResidual: preds, InnerCols: allCols(ti),
			Rows: outRows,
		}
		if inlj.time() < best.time() {
			best = inlj
		}
	}
	return best
}

// paths1 returns the best access path for a single table of the query
// (re-derived; the planner caches nothing across joinCandidates calls other
// than service times, keeping enumeration state simple).
func paths1(p *planner, q *plan.Query, name string) *cand {
	return p.bestAccessPath(p.o.Tables[name], q.TablePreds(name))
}
