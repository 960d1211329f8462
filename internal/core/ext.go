package core

// This file holds the extension cost functions beyond the paper's core
// scope: Cao et al.'s Sum cost (greedy weighted set cover approximation
// with ratio H_{|q.ψ|}, plus a pruned exact search) and the MinMax cost
// (min owner distance + pairwise distance owner), solved with the same
// distance owner-driven skeleton as MaxSum/Dia but with the owner being
// the member *nearest* to the query.

import (
	"math"
	"sort"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// sumCandidates materializes the relevant objects that can participate in
// a Sum-cost solution cheaper than bound: each member contributes its own
// distance to the sum, so members farther than bound are useless.
func (e *Engine) sumCandidates(q Query, qi *kwds.QueryIndex, bound float64) []cand {
	var out []cand
	e.Tree.RelevantInDisk(geo.Circle{C: q.Loc, R: bound}, qi, func(o *dataset.Object, m kwds.Mask) bool {
		out = append(out, cand{o: o, d: q.Loc.Dist(o.Loc), mask: m})
		return true
	})
	return out
}

// dominanceFilter drops Sum-dominated candidates: o is dominated when a
// distinct object o' has d(o',q) ≤ d(o,q) and covers a superset of o's
// query keywords (ties broken toward the smaller object id so exactly one
// of identical twins survives). Some optimal Sum solution uses only
// surviving candidates — replacing a dominated member by its dominator
// keeps coverage and never increases the sum — so the filter preserves
// exactness (cf. the dominance pruning of the follow-up literature).
// It applies to the Sum cost only: pairwise-distance costs depend on
// member positions, not just their query distances.
func dominanceFilter(cands []cand) []cand {
	sorted := append([]cand(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].d != sorted[j].d {
			return sorted[i].d < sorted[j].d
		}
		return sorted[i].o.ID < sorted[j].o.ID
	})
	// maximal holds an antichain of coverage masks seen so far (all from
	// candidates at most as far as the current one).
	var maximal []kwds.Mask
	out := sorted[:0]
	for _, c := range sorted {
		dominated := false
		for _, m := range maximal {
			if c.mask&^m == 0 {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		out = append(out, c)
		// Maintain the antichain: drop masks subsumed by the new one.
		kept := maximal[:0]
		for _, m := range maximal {
			if m&^c.mask != 0 {
				kept = append(kept, m)
			}
		}
		maximal = append(kept, c.mask)
	}
	return out
}

// greedySum is the classic weighted set cover greedy adapted to CoSKQ with
// the Sum cost: repeatedly pick the object minimizing
// d(o, q) / |newly covered keywords|. Approximation ratio H_{|q.ψ|}.
func (e *Engine) greedySum(q Query) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := e.tr.Begin("greedy_sum")
	var stats Stats
	seed, seedCost, _, err := e.nnSeed(q, Sum, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	stats.SetsEvaluated = 1

	cands := e.sumCandidates(q, qi, seedCost)
	stats.CandidatesSeen = len(cands)

	var (
		covered kwds.Mask
		set     []dataset.ObjectID
	)
	for covered != qi.Full() {
		bestIdx, bestRatio := -1, math.Inf(1)
		for i, c := range cands {
			n := (c.mask &^ covered).Count()
			if n == 0 {
				continue
			}
			if r := c.d / float64(n); r < bestRatio {
				bestIdx, bestRatio = i, r
			}
		}
		if bestIdx < 0 {
			// Cannot happen for a feasible query: N(q)'s members are all
			// inside the seed disk.
			break
		}
		covered |= cands[bestIdx].mask
		set = append(set, cands[bestIdx].o.ID)
	}

	res := canonical(set)
	c := e.EvalCost(Sum, q.Loc, res)
	stats.SetsEvaluated++
	// The greedy can lose to the plain NN set; return the better.
	if seedCost < c {
		res, c = canonical(seed), seedCost
	}
	algo.End()
	stats.Elapsed = time.Since(start)
	return Result{Set: res, Cost: c, Cost2: Sum, Stats: stats}, nil
}

// sumExact finds the optimal Sum-cost set with a pruned cover enumeration:
// partial sets are bounded below by their current sum plus the cheapest
// possible completion (for each uncovered keyword, the nearest object
// containing it — keywords can share objects, so the max of those minima
// is a valid bound).
func (e *Engine) sumExact(q Query) (res Result, err error) {
	defer recoverBudget(&err)
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)

	algo := e.tr.Begin("sum_exact")
	seedSp := e.tr.Begin("seed_greedy")
	seedRes, err := e.greedySum(q)
	seedSp.End()
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet, curCost := seedRes.Set, seedRes.Cost
	stats := Stats{SetsEvaluated: seedRes.Stats.SetsEvaluated, Prunes: seedRes.Stats.Prunes}
	stats.Phases.Seed = time.Since(start)
	e.trackStats(&stats)
	e.noteIncumbent(curSet, curCost, Sum)

	matSp := e.tr.Begin("materialize")
	matStart := time.Now()
	cands := e.sumCandidates(q, qi, curCost)
	if !e.Ablation.NoSumDominance {
		before := len(cands)
		cands = dominanceFilter(cands)
		stats.Prunes[trace.PruneDominated] += int64(before - len(cands))
	}
	stats.CandidatesSeen = len(cands)
	stats.Phases.Materialize = time.Since(matStart)
	if matSp != nil {
		matSp.Attr("candidates", float64(stats.CandidatesSeen))
	}
	matSp.End()

	// minDistFor[b]: distance of the nearest candidate covering bit b.
	minDistFor := make([]float64, qi.Size())
	bitCands := make([][]int, qi.Size())
	for b := range minDistFor {
		minDistFor[b] = math.Inf(1)
	}
	for i, c := range cands {
		for b := 0; b < qi.Size(); b++ {
			if c.mask&(1<<uint(b)) != 0 {
				bitCands[b] = append(bitCands[b], i)
				if c.d < minDistFor[b] {
					minDistFor[b] = c.d
				}
			}
		}
	}

	completion := func(covered kwds.Mask) float64 {
		lb := 0.0
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) == 0 && minDistFor[b] > lb {
				lb = minDistFor[b]
			}
		}
		return lb
	}

	searchSp := e.tr.Begin("search")
	searchStart := time.Now()
	var chosen []dataset.ObjectID
	var dfs func(covered kwds.Mask, sum float64)
	dfs = func(covered kwds.Mask, sum float64) {
		e.chargeNode(&stats)
		if covered == qi.Full() {
			stats.SetsEvaluated++
			if sum < curCost {
				curCost = sum
				curSet = canonical(chosen)
				e.noteIncumbent(curSet, curCost, Sum)
			}
			return
		}
		if sum+completion(covered) >= curCost {
			stats.Prunes[trace.PruneCompletionBound]++
			return
		}
		branch, branchLen := -1, math.MaxInt32
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) != 0 {
				continue
			}
			if n := len(bitCands[b]); n < branchLen {
				branch, branchLen = b, n
			}
		}
		for _, i := range bitCands[branch] {
			c := cands[i]
			if c.mask&^covered == 0 {
				stats.Prunes[trace.PruneNoNewKeyword]++
				continue
			}
			if sum+c.d >= curCost {
				stats.Prunes[trace.PruneSumBound]++
				continue
			}
			chosen = append(chosen, c.o.ID)
			dfs(covered|c.mask, sum+c.d)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(0, 0)
	stats.Phases.Search = time.Since(searchStart)
	if searchSp != nil {
		searchSp.Attr("nodes", float64(stats.NodesExpanded))
		searchSp.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		searchSp.Attr("cost", curCost)
	}
	searchSp.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: Sum, Stats: stats}, nil
}

// minMaxExact solves the MinMax cost (min owner distance + pairwise
// distance owner) with the owner-driven skeleton, the owner now being the
// member nearest to the query. All other members of a set owned by o lie
// within C(o, curCost − d(o,q)) (the pairwise component is at least their
// distance from o) and at query distance ≥ d(o,q).
func (e *Engine) minMaxExact(q Query) (res Result, err error) {
	defer recoverBudget(&err)
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := e.tr.Begin("minmax_exact")
	var stats Stats
	e.trackStats(&stats)
	seed, curCost, _, err := e.nnSeed(q, MinMax, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	e.noteIncumbent(curSet, curCost, MinMax)
	stats.SetsEvaluated = 1

	// The cover enumeration is OwnerExact's with the MaxSum combine:
	// cost = d(o,q) + maxPair for the nearest member o.
	scratch := getOwnerScratch()
	s := coverSearch{e: e, stats: &stats, cost: ownerCost{kind: MaxSum}, qi: qi, bound: curCost,
		chosen: scratch.chosen[:0], best: scratch.bestSet[:0]}
	defer func() {
		scratch.chosen, scratch.bestSet = s.chosen[:0], s.best[:0]
		putOwnerScratch(scratch)
	}()

	loop := e.tr.Begin("owner_loop")
	searchStart := time.Now()
	it := e.Tree.NewRelevantNNIterator(q.Loc, qi)
	it.Limit(curCost)
	for {
		o, do, ok := it.Next()
		if !ok {
			break
		}
		if do >= curCost {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break // cost ≥ d(nearest member, q)
		}
		stats.OwnersTried++
		e.pollCancel(stats.OwnersTried)

		// Candidates: relevant objects within C(o, curCost − d(o,q)) whose
		// query distance is at least d(o,q) (o must stay the nearest).
		ownerMask := qi.MaskOf(o.Keywords)
		pool, bitCands := scratch.pool[:0], scratch.ensureBits(qi.Size())
		e.Tree.RelevantInDisk(geo.Circle{C: o.Loc, R: curCost - do}, qi, func(x *dataset.Object, m kwds.Mask) bool {
			if x.ID == o.ID || q.Loc.Dist(x.Loc) < do {
				return true
			}
			if m&^ownerMask == 0 {
				return true
			}
			idx := int32(len(pool))
			pool = append(pool, cand{o: x, d: q.Loc.Dist(x.Loc), mask: m})
			for b := 0; b < qi.Size(); b++ {
				if m&(1<<uint(b)) != 0 {
					bitCands[b] = append(bitCands[b], idx)
				}
			}
			return true
		})
		scratch.pool = pool
		stats.CandidatesSeen += len(pool)

		s.pool, s.bitCands = pool, bitCands
		s.run(cand{o: o, d: do, mask: ownerMask})
		if s.found {
			curSet, curCost = canonical(s.best), s.bound
			e.noteIncumbent(curSet, curCost, MinMax)
			it.Limit(curCost)
		}
	}
	stats.Phases.Search = time.Since(searchStart)
	if loop != nil {
		loop.Attr("candidates", float64(stats.CandidatesSeen))
		loop.Attr("owners_tried", float64(stats.OwnersTried))
		loop.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		loop.Attr("cost", curCost)
	}
	loop.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: MinMax, Stats: stats}, nil
}

// minMaxAppro approximates the MinMax cost with ratio 2: for each
// candidate nearest-member owner o (ascending query distance, bounded by
// the best-known cost), cover the remaining keywords with the objects
// nearest to o and keep the cheapest resulting set.
func (e *Engine) minMaxAppro(q Query) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := e.tr.Begin("minmax_appro")
	var stats Stats
	e.trackStats(&stats)
	seed, curCost, _, err := e.nnSeed(q, MinMax, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	e.noteIncumbent(curSet, curCost, MinMax)
	stats.SetsEvaluated = 1

	loop := e.tr.Begin("owner_loop")
	searchStart := time.Now()
	noDisk := geo.Circle{R: -1}
	it := e.Tree.NewRelevantNNIterator(q.Loc, qi)
	for {
		o, do, ok := it.Next()
		if !ok {
			break
		}
		if do >= curCost {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break
		}
		stats.OwnersTried++
		e.pollCancel(stats.OwnersTried)
		covered := qi.MaskOf(o.Keywords)
		set := []dataset.ObjectID{o.ID}
		feasible := true
		for covered != qi.Full() {
			next, _, ok := e.Tree.NNCoveringInDisk(o.Loc, qi, qi.Full()&^covered, noDisk)
			if !ok {
				feasible = false
				break
			}
			covered |= qi.MaskOf(next.Keywords)
			set = append(set, next.ID)
		}
		if !feasible {
			continue
		}
		stats.SetsEvaluated++
		if c := e.EvalCost(MinMax, q.Loc, set); c < curCost {
			curSet, curCost = canonical(set), c
			e.noteIncumbent(curSet, curCost, MinMax)
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
	return Result{Set: curSet, Cost: curCost, Cost2: MinMax, Stats: stats}, nil
}
