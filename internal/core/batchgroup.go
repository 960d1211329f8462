package core

// Grouped batch solving (DESIGN.md §15). A batch under production traffic
// is rarely a set of unrelated queries: hot locations and hot keyword
// combinations repeat. SolveBatchCtx therefore clusters its queries by
// query-location grid cell and keyword-set Jaccard similarity, and solves
// each cluster with three kinds of shared work:
//
//  1. A cluster-local keyword-NN share (nnShare): every NN2 observation
//     made while solving one member carries a validity radius (the same
//     rule as the engine-level NNCache, nncache.go), so later members
//     re-resolve their keyword NNs from the share — provably
//     bit-identically — instead of re-walking the IR-tree.
//
//  2. One shared candidate-retrieval range scan (buildClusterScan): for
//     the owner-driven exact search, every member's candidate-owner
//     stream draws from the disk C(q_i, seedCost_i). One RelevantInDisk
//     scan around the cluster anchor with radius
//     R = max_i (d(anchor, q_i) + seedCost_i) covers them all (triangle
//     inequality: any object with d(o, q_i) < seedCost_i has
//     d(o, anchor) ≤ d(o, q_i) + d(q_i, anchor) < R), and each member's
//     stream is the scan filtered to its relevant objects and sorted
//     ascending by (distance, object ID) — the same objects in the same
//     order the per-query IR-tree iterator would produce.
//
//  3. Incumbent warm-starting (warmBoundFor): when a member's exact
//     answer set W also covers the next member's keywords, the next
//     member's optimum is at most cost(W) evaluated at its own location —
//     W is feasible for it — so the search's pruning bound starts one ulp
//     above that value instead of at the NN-seed cost. The warm value is
//     used only as a bound, never as an answer candidate, which keeps
//     warm and cold runs bit-identical (see the proof in exact.go).
//
// Grouping is deterministic: queries are scanned in batch order, clusters
// within a cell are probed in creation order, and membership depends only
// on the queries themselves — never on map iteration order or scheduling.
// Cluster solving preserves per-item semantics exactly: every member
// still gets its own SolveCtx-equivalent execution (metrics record,
// trace, degrade policy, context error), and grouped results are
// bit-identical to an independent per-query run (the grouped differential
// tests pin this across costs, methods, seeds and worker counts).

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

const (
	// batchCellGrid is the number of grouping-grid cells per axis over the
	// dataset MBR: coarse enough that jittered repeats of one hot location
	// land in one cell, fine enough that distinct neighborhoods do not.
	batchCellGrid = 128
	// batchJaccardMin is the minimum keyword Jaccard similarity between a
	// query and a cluster's representative (its first member) to join.
	batchJaccardMin = 0.5
	// nnShareCap bounds a cluster's NN-observation list; a linear scan
	// over at most this many entries stays cheaper than the tree walk it
	// replaces.
	nnShareCap = 256
)

// batchCluster is one group of near-identical queries solved together.
type batchCluster struct {
	idxs  []int    // indices into the batch's query slice, ascending
	union kwds.Set // union of member keyword sets (fits a QueryIndex)
}

// jaccardSim returns |a∩b| / |a∪b| for two sorted keyword sets (1 when
// both are empty).
func jaccardSim(a, b kwds.Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// groupBatch clusters the batch's queries. Two queries share a cluster
// when they fall in the same grouping-grid cell and the later one's
// keyword set has Jaccard similarity ≥ batchJaccardMin with the cluster's
// first member — provided the cluster's keyword union stays within
// kwds.MaxQueryKeywords, the capacity of the shared scan's QueryIndex.
// Scanning in batch order with in-cell probes in creation order makes the
// clustering deterministic.
func (e *Engine) groupBatch(queries []Query) []batchCluster {
	mbr := e.DS.MBR()
	sideX := mbr.Width() / batchCellGrid
	sideY := mbr.Height() / batchCellGrid
	cellOf := func(p geo.Point) uint64 {
		cx, cy := 0.0, 0.0
		if sideX > 0 {
			cx = math.Floor((p.X - mbr.MinX) / sideX)
		}
		if sideY > 0 {
			cy = math.Floor((p.Y - mbr.MinY) / sideY)
		}
		return uint64(uint32(clampCell(cx)))<<32 | uint64(uint32(clampCell(cy)))
	}

	clusters := make([]batchCluster, 0, len(queries))
	// byCell only resolves a cell to its cluster indices; iteration never
	// ranges over the map, so map order cannot leak into the clustering.
	byCell := make(map[uint64][]int)
	for i, q := range queries {
		cell := cellOf(q.Loc)
		joined := -1
		for _, ci := range byCell[cell] {
			c := &clusters[ci]
			rep := queries[c.idxs[0]].Keywords
			if jaccardSim(q.Keywords, rep) < batchJaccardMin {
				continue
			}
			if u := c.union.Union(q.Keywords); len(u) <= kwds.MaxQueryKeywords {
				c.idxs = append(c.idxs, i)
				c.union = u
				joined = ci
			}
			break
		}
		if joined < 0 {
			clusters = append(clusters, batchCluster{
				idxs:  []int{i},
				union: append(kwds.Set(nil), q.Keywords...),
			})
			byCell[cell] = append(byCell[cell], len(clusters)-1)
		}
	}
	return clusters
}

// nnObs is one validity-radius NN observation (the in-cluster analogue of
// an NNCache entry; see nncache.go for the proof that reuse within the
// radius is bit-identical to the IR-tree walk).
type nnObs struct {
	p      geo.Point
	kw     kwds.ID
	id     dataset.ObjectID
	loc    geo.Point
	d1, d2 float64
	ok     bool
}

// nnShare is the cluster-local keyword-NN share: a flat observation list
// consulted by lookupNN ahead of the engine-level cache. It is per-call
// state of the cluster's (serial) member loop and is NOT goroutine-safe.
type nnShare struct {
	obs []nnObs
}

// lookup returns a provably-valid cached NN for (p, kw), hit=false when
// no observation validates.
func (s *nnShare) lookup(p geo.Point, kw kwds.ID) (id dataset.ObjectID, d float64, ok, hit bool) {
	for i := range s.obs {
		o := &s.obs[i]
		if o.kw != kw {
			continue
		}
		if !o.ok {
			// Negative observation: the keyword appears in no object;
			// valid everywhere (the dataset is immutable).
			return 0, 0, false, true
		}
		delta := p.Dist(o.p)
		if delta == 0 {
			return o.id, o.d1, true, true
		}
		if 2*delta < o.d2-o.d1 {
			return o.id, p.Dist(o.loc), true, true
		}
	}
	return 0, 0, false, false
}

// store appends one NN2 observation, dropping it once the share is full.
func (s *nnShare) store(p geo.Point, kw kwds.ID, id dataset.ObjectID, loc geo.Point, d1, d2 float64, ok bool) {
	if len(s.obs) >= nnShareCap {
		return
	}
	s.obs = append(s.obs, nnObs{p: p, kw: kw, id: id, loc: loc, d1: d1, d2: d2, ok: ok})
}

// memberCand is one shared-scan object as seen by one cluster member:
// the object and its distance from that member's query location.
type memberCand struct {
	o *dataset.Object
	d float64
}

// clusterShare bundles one cluster execution's shared state and scratch:
// the NN share, the shared range-scan result, and the per-member
// candidate list the poolIter walks. Recycled through a sync.Pool across
// clusters; acquire with getClusterShare, release with putClusterShare.
type clusterShare struct {
	nn   nnShare
	scan []*dataset.Object
	mcs  []memberCand
	it   poolIter
}

var clusterSharePool = sync.Pool{New: func() any { return new(clusterShare) }}

func getClusterShare() *clusterShare {
	s := clusterSharePool.Get().(*clusterShare)
	s.nn.obs = s.nn.obs[:0]
	s.scan = s.scan[:0]
	return s
}

// putClusterShare returns s to the pool. Callers must be done with every
// iterator handed out of s — member executions run strictly before the
// release — since the per-member candidate list recirculates.
func putClusterShare(s *clusterShare) { clusterSharePool.Put(s) }

// poolIter streams one member's pre-materialized candidates ascending by
// (distance, object ID), implementing ownerSource. It mirrors the
// contract of irtree.RelevantNNIterator exactly: objects at distance ≥
// the limit are never returned, the limit only decreases, and each Next
// passes the RTreeVisit fault point — so a chaos schedule armed on
// candidate enumeration fires on the shared-scan path too.
type poolIter struct {
	list  []memberCand
	pos   int
	limit float64
}

func (it *poolIter) Next() (*dataset.Object, float64, bool) {
	fault.Hit(fault.RTreeVisit)
	if it.pos >= len(it.list) {
		return nil, 0, false
	}
	mc := it.list[it.pos]
	if mc.d >= it.limit {
		return nil, 0, false // ascending order: everything left is farther
	}
	it.pos++
	return mc.o, mc.d, true
}

func (it *poolIter) Limit(d float64) {
	if d < it.limit {
		it.limit = d
	}
}

// memberIter builds the ownerSource for one member from the shared scan:
// the scan filtered to the member's relevant objects, with distances from
// the member's location, sorted ascending by (d, ID). On float datasets
// without exact distance ties this is the precise order the member's own
// IR-tree iterator would produce (DESIGN.md §15 discusses the tie
// caveat).
func (cs *clusterShare) memberIter(q Query, qi *kwds.QueryIndex) *poolIter {
	mcs := cs.mcs[:0]
	for _, o := range cs.scan {
		if qi.MaskOf(o.Keywords) == 0 {
			continue
		}
		mcs = append(mcs, memberCand{o: o, d: q.Loc.Dist(o.Loc)})
	}
	sort.Slice(mcs, func(a, b int) bool {
		if mcs[a].d != mcs[b].d {
			return mcs[a].d < mcs[b].d
		}
		return mcs[a].o.ID < mcs[b].o.ID
	})
	cs.mcs = mcs
	cs.it = poolIter{list: mcs, limit: math.Inf(1)}
	return &cs.it
}

// sharedScanEligible reports whether the cluster's members may draw their
// candidate owners from one shared range scan: only the owner-driven
// exact search under MaxSum/Dia consumes an ownerSource, and ablations
// that widen the enumeration (NoIncumbentBreak reads past every bound)
// need the unbounded tree iterator.
func (e *Engine) sharedScanEligible(cost CostKind, method Method) bool {
	return method == OwnerExact &&
		(cost == MaxSum || cost == Dia) &&
		e.Ablation == (Ablation{})
}

// buildClusterScan materializes the cluster's shared candidate scan into
// cs.scan, returning false when the scan is unusable (every member
// infeasible, or the probe was cut short by cancellation or an injected
// fault — members then fall back to their own tree iterators). The
// per-member NN-seed probes run against the cluster NN share, so they
// double as its warm-up: by the time members solve, their seeds resolve
// from the share.
func (e *Engine) buildClusterScan(ctx context.Context, queries []Query, cl batchCluster, cost CostKind, cs *clusterShare) (scanOK bool) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case budgetExceeded, searchCanceled, fault.Unwind:
				// The probe died mid-flight (injected fault or a cancel
				// poll); the members' own executions will observe and
				// report the real condition. Drop the partial scan.
				cs.scan = cs.scan[:0]
				scanOK = false
			default:
				panic(r)
			}
		}
	}()
	probe := *e
	probe.clusterNN = &cs.nn
	probe.nnmemo = nil
	probe.ownerSrc = nil
	probe.warmBound = 0
	probe.tr = nil
	probe.any = nil
	if ctx != nil && ctx.Done() != nil {
		probe.ctx = ctx
	}

	anchor := queries[cl.idxs[0]].Loc
	radius := 0.0
	feasible := false
	var stats Stats
	for _, i := range cl.idxs {
		q := queries[i]
		_, c, _, err := probe.nnSeed(q, cost, &stats)
		if err != nil {
			continue // infeasible member; its own execution reports it
		}
		feasible = true
		if r := anchor.Dist(q.Loc) + c; r > radius {
			radius = r
		}
	}
	if !feasible {
		return false
	}

	uqi := kwds.NewQueryIndex(cl.union)
	cancelled := false
	n := 0
	e.Tree.RelevantInDisk(geo.Circle{C: anchor, R: radius}, uqi, func(o *dataset.Object, _ kwds.Mask) bool {
		cs.scan = append(cs.scan, o)
		n++
		if probe.ctx != nil && n&cancelPollMask == 0 && probe.ctx.Err() != nil {
			cancelled = true
			return false
		}
		return true
	})
	if cancelled {
		cs.scan = cs.scan[:0]
		return false
	}
	return true
}

// warmSeed carries a finished member's answer forward: the canonical set,
// and the union of its members' keywords (what the set can cover).
type warmSeed struct {
	set []dataset.ObjectID
	kw  kwds.Set
}

// warmBoundFor returns the warm-start bound for q — the warm set's cost
// evaluated at q's location — or 0 when the warm set does not cover q's
// keywords (it would not be feasible for q, so its cost bounds nothing).
func (e *Engine) warmBoundFor(w warmSeed, q Query, cost CostKind) float64 {
	if len(w.set) == 0 || !w.kw.Covers(q.Keywords) {
		return 0
	}
	return e.EvalCost(cost, q.Loc, w.set)
}

// noteWarm folds a finished member's answer into the warm seed. Only
// complete (non-degraded) answers chain: a degraded incumbent's cost is
// an upper bound too, but keeping the contract "warm values come from
// full answers" keeps the determinism argument one sentence long.
func (w *warmSeed) noteWarm(e *Engine, res Result) {
	if res.Degraded || len(res.Set) == 0 {
		return
	}
	var u kwds.Set
	for _, id := range res.Set {
		u = u.Union(e.DS.Object(id).Keywords)
	}
	w.set = append(w.set[:0], res.Set...)
	w.kw = u
}

// solveCluster answers one cluster's members in index order, sharing the
// NN observations, the candidate scan and the warm-start chain described
// atop this file. Results land in out at each member's batch index.
func (e *Engine) solveCluster(ctx context.Context, queries []Query, cl batchCluster, cost CostKind, method Method, out []BatchItem) {
	if len(cl.idxs) == 1 {
		i := cl.idxs[0]
		if err := ctx.Err(); err != nil {
			out[i] = BatchItem{Err: err}
			return
		}
		res, err := e.SolveCtx(ctx, queries[i], cost, method)
		out[i] = BatchItem{Result: res, Err: err}
		return
	}

	cs := getClusterShare()
	defer putClusterShare(cs)

	scanOK := false
	warmable := e.sharedScanEligible(cost, method)
	if warmable {
		scanOK = e.buildClusterScan(ctx, queries, cl, cost, cs)
	}

	var warm warmSeed
	for _, i := range cl.idxs {
		// Poll between members: a cancelled batch must stop starting new
		// member solves even while its cluster is mid-flight.
		if err := ctx.Err(); err != nil {
			out[i] = BatchItem{Err: err}
			continue
		}
		q := queries[i]
		var src ownerSource
		if scanOK {
			src = cs.memberIter(q, kwds.NewQueryIndex(q.Keywords))
		}
		wb := 0.0
		if warmable {
			wb = e.warmBoundFor(warm, q, cost)
		}
		res, err := e.solveClusterMember(ctx, q, cost, method, &cs.nn, src, wb)
		out[i] = BatchItem{Result: res, Err: err}
		if warmable && err == nil {
			warm.noteWarm(e, res)
		}
	}
}

// solveClusterMember is SolveCtx for one cluster member: the same
// per-call engine setup, metrics record and trace accounting, plus the
// cluster's shared state (NN share, candidate source, warm bound)
// attached to the per-call clone.
func (e *Engine) solveClusterMember(ctx context.Context, q Query, cost CostKind, method Method, share *nnShare, src ownerSource, wb float64) (Result, error) {
	start := time.Now()
	run, err := e.withCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	run.clusterNN = share
	run.ownerSrc = src
	run.warmBound = wb
	if wb > 0 && e.Metrics != nil {
		e.Metrics.batchWarm.Inc()
	}
	defer putNNMemo(run.nnmemo)
	defer putAnytime(run.any)
	res, err := run.solve(q, cost, method)
	res.Stats.Elapsed = time.Since(start)
	if e.Metrics != nil {
		e.Metrics.recordSolve(cost, method, res, err, res.Stats.Elapsed)
	}
	if tr := trace.FromContext(ctx); tr != nil {
		tr.AddPrunes(res.Stats.Prunes)
	}
	return res, err
}
