package core

import (
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// caoAppro1 is Cao et al.'s first approximation: return the nearest
// neighbor set N(q). For MaxSum its ratio is 3 (each member is within d_f
// of q, so the pairwise component is at most 2·d_f while any feasible set
// costs at least d_f).
func (e *Engine) caoAppro1(q Query, cost CostKind) (Result, error) {
	start := time.Now()
	algo := e.tr.Begin("cao_appro1")
	var stats Stats
	seed, c, _, err := e.nnSeed(q, cost, &stats)
	algo.End()
	if err != nil {
		return Result{}, err
	}
	stats.SetsEvaluated = 1
	stats.Elapsed = time.Since(start)
	return Result{
		Set:   canonical(seed),
		Cost:  c,
		Cost2: cost,
		Stats: stats,
	}, nil
}

// caoAppro2 is Cao et al.'s iterative approximation (ratio 2 for MaxSum):
// let t_f be the query keyword whose nearest neighbor is farthest (the
// keyword forcing d_f). Every feasible set contains an object with t_f, so
// the algorithm tries each object o containing t_f in ascending distance
// (stopping at the best-known cost) and builds the set
// {o} ∪ { NN(o, t) : t ∈ q.ψ uncovered by o }.
func (e *Engine) caoAppro2(q Query, cost CostKind) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := e.tr.Begin("cao_appro2")
	var stats Stats
	e.trackStats(&stats)
	seed, curCost, _, err := e.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	e.noteIncumbent(curSet, curCost, cost)
	stats.SetsEvaluated = 1

	loop := e.tr.Begin("owner_loop")
	searchStart := time.Now()
	tf := e.farthestNNKeyword(q)
	it := e.Tree.NewKeywordNNIterator(q.Loc, tf)
	for {
		o, d, ok := it.Next()
		if !ok {
			break
		}
		if d >= curCost {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break // o ∈ S implies cost(S) ≥ d(o, q) under MaxSum and Dia
		}
		stats.OwnersTried++
		e.pollCancel(stats.OwnersTried)
		set, ok := e.nnAroundObject(qi, o)
		if !ok {
			continue
		}
		stats.SetsEvaluated++
		if c := e.EvalCost(cost, q.Loc, set); c < curCost {
			curSet, curCost = canonical(set), c
			e.noteIncumbent(curSet, curCost, cost)
		}
	}
	stats.Phases.Search = time.Since(searchStart)
	if loop != nil {
		loop.Attr("owners_tried", float64(stats.OwnersTried))
		loop.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		loop.Attr("cost", curCost)
	}
	loop.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost, Stats: stats}, nil
}

// farthestNNKeyword returns the query keyword whose nearest neighbor from
// q is the farthest — the keyword that pins d_f. The query must be
// feasible (checked by the callers via nnSeed). Lookups go through the
// per-query keyword-NN memo, so after nnSeed these are cache hits.
func (e *Engine) farthestNNKeyword(q Query) kwds.ID {
	best, bestD := q.Keywords[0], math.Inf(-1)
	for _, kw := range q.Keywords {
		if _, d, ok := e.keywordNN(q.Loc, kw); ok && d > bestD {
			best, bestD = kw, d
		}
	}
	return best
}

// nnAroundObject builds {o} ∪ { NN(o, t) : t uncovered by o }; ok is false
// when some keyword has no object at all.
func (e *Engine) nnAroundObject(qi *kwds.QueryIndex, o *dataset.Object) ([]dataset.ObjectID, bool) {
	set := []dataset.ObjectID{o.ID}
	covered := qi.MaskOf(o.Keywords)
	for i, kw := range qi.Keywords() {
		if covered&(1<<uint(i)) != 0 {
			continue
		}
		id, _, ok := e.Tree.NN(o.Loc, kw)
		if !ok {
			return nil, false
		}
		set = append(set, id)
	}
	return set, true
}

// kwCand is one Cao-Exact candidate: an object containing a particular
// query keyword, with its distance from q and covered-keyword mask.
type kwCand struct {
	o    *dataset.Object
	d    float64
	mask kwds.Mask
}

// caoSearch is Cao-Exact's branch-and-bound state; bestSet/bestCost hold
// the incumbent.
type caoSearch struct {
	e     *Engine
	qi    *kwds.QueryIndex
	cost  CostKind
	cands [][]kwCand
	stats *Stats

	chosen    []*dataset.Object
	chosenIDs []dataset.ObjectID

	bestCost float64
	bestSet  []dataset.ObjectID
}

// dfs expands the partial set s.chosen (covering covered, with maxD the
// farthest member from q and maxPair the largest pairwise distance) by
// the uncovered keyword with the fewest candidates.
func (s *caoSearch) dfs(covered kwds.Mask, maxD, maxPair float64) {
	s.e.chargeNode(s.stats)
	if covered == s.qi.Full() {
		s.stats.SetsEvaluated++
		if c := combine(s.cost, maxD, maxPair); c < s.bestCost {
			s.bestCost = c
			s.bestSet = canonical(s.chosenIDs)
			s.e.noteIncumbent(s.bestSet, c, s.cost)
		}
		return
	}
	// Expand by the uncovered keyword with the fewest candidates.
	branch, branchLen := -1, math.MaxInt32
	for b := 0; b < s.qi.Size(); b++ {
		if covered&(1<<uint(b)) != 0 {
			continue
		}
		if n := len(s.cands[b]); n < branchLen {
			branch, branchLen = b, n
		}
	}
	for _, kc := range s.cands[branch] {
		if kc.mask&^covered == 0 {
			s.stats.Prunes[trace.PruneNoNewKeyword]++
			continue
		}
		if kc.d >= s.bestCost {
			// ascending distance: every later candidate also exceeds
			// the bound
			s.stats.Prunes[trace.PruneDistanceBreak]++
			break
		}
		nd := math.Max(maxD, kc.d)
		np := maxPair
		for _, m := range s.chosen {
			if d := kc.o.Loc.Dist(m.Loc); d > np {
				np = d
			}
		}
		if combine(s.cost, nd, np) >= s.bestCost {
			s.stats.Prunes[trace.PrunePairBound]++
			continue
		}
		s.chosen = append(s.chosen, kc.o)
		s.chosenIDs = append(s.chosenIDs, kc.o.ID)
		s.dfs(covered|kc.mask, nd, np)
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.chosenIDs = s.chosenIDs[:len(s.chosenIDs)-1]
	}
}

// caoExact is the Cao et al. branch-and-bound exact baseline: a
// best-known-cost-pruned exhaustive search over feasible sets, expanding
// partial sets by the least frequent uncovered keyword's candidate objects
// (ascending by distance from q). The search space is the disk
// C(q, curCost) with curCost seeded by Cao-Appro2 — there is no distance
// owner enumeration, which is exactly the structural difference the paper
// exploits.
func (e *Engine) caoExact(q Query, cost CostKind) (res Result, err error) {
	defer recoverBudget(&err)
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)

	// Seed with the Appro2 result, as Cao et al. do.
	algo := e.tr.Begin("cao_exact")
	seedSp := e.tr.Begin("seed_appro2")
	seedRes, err := e.caoAppro2(q, cost)
	seedSp.End()
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet, curCost := seedRes.Set, seedRes.Cost
	stats := Stats{SetsEvaluated: seedRes.Stats.SetsEvaluated, Prunes: seedRes.Stats.Prunes}
	stats.Phases.Seed = time.Since(start)
	// The Appro2 seed already noted itself (same per-call holder);
	// re-register the outer stats so an unwind recovers this run's
	// counters, which subsume the seed's.
	e.trackStats(&stats)

	// Materialize, per query keyword, the candidate objects containing it
	// within C(q, curCost), ascending by distance. The lists recycle
	// through the scratch pool.
	matSp := e.tr.Begin("materialize")
	matStart := time.Now()
	scratch := getCaoScratch()
	defer putCaoScratch(scratch)
	cands := scratch.ensureCands(qi.Size())
	for b, kw := range qi.Keywords() {
		it := e.Tree.NewKeywordNNIterator(q.Loc, kw)
		for {
			o, d, ok := it.Next()
			if !ok || d >= curCost {
				break
			}
			cands[b] = append(cands[b], kwCand{o: o, d: d, mask: qi.MaskOf(o.Keywords)})
			stats.CandidatesSeen++
			e.pollCancel(stats.CandidatesSeen)
		}
	}
	scratch.cands = cands
	stats.Phases.Materialize = time.Since(matStart)
	if matSp != nil {
		matSp.Attr("candidates", float64(stats.CandidatesSeen))
	}
	matSp.End()

	searchSp := e.tr.Begin("bnb_search")
	searchStart := time.Now()
	s := &caoSearch{
		e: e, qi: qi, cost: cost, cands: cands, stats: &stats,
		chosen:    scratch.chosen[:0],
		chosenIDs: scratch.chosenIDs[:0],
		bestCost:  curCost,
		bestSet:   curSet,
	}
	s.dfs(0, 0, 0)
	curSet, curCost = s.bestSet, s.bestCost
	scratch.chosen, scratch.chosenIDs = s.chosen[:0], s.chosenIDs[:0]
	stats.Phases.Search = time.Since(searchStart)
	if searchSp != nil {
		searchSp.Attr("nodes", float64(stats.NodesExpanded))
		searchSp.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		searchSp.Attr("cost", curCost)
	}
	searchSp.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost, Stats: stats}, nil
}
