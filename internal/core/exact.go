package core

import (
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// combine composes the two distance components — the query distance owner
// distance and the pairwise distance owner distance — into the cost value.
// Both MaxSum and Dia are monotone in each component, which is what makes
// the partial-set lower bounds of the owner-driven search valid.
func combine(cost CostKind, ownerDist, maxPair float64) float64 {
	if cost == Dia {
		return math.Max(ownerDist, maxPair)
	}
	return ownerDist + maxPair
}

// ownerCost is the cost descriptor of the owner-driven search: how a
// set's query distance owner distance and pairwise distance owner
// distance combine into its cost. Every cost it describes is monotone in
// both components, so combine of a partial set is a lower bound on any
// of its completions.
type ownerCost struct {
	// kind is MaxSum or Dia. It is also the kind answers report: cost_α
	// answers report MaxSum, of which cost_α is the generalization.
	kind CostKind
	// alpha > 0 selects cost_α = α·d_owner + (1−α)·maxPair instead.
	alpha float64
}

func (c ownerCost) combine(ownerDist, maxPair float64) float64 {
	if c.alpha > 0 {
		return c.alpha*ownerDist + (1-c.alpha)*maxPair
	}
	return combine(c.kind, ownerDist, maxPair)
}

// ring returns the owner distance at which the enumeration can stop for
// a pruning bound: every set owned that far costs at least
// combine(d(o,q), 0) ≥ bound.
func (c ownerCost) ring(bound float64) float64 {
	if c.alpha > 0 {
		return bound / c.alpha
	}
	return bound
}

// cand is one relevant object materialized by the ascending-distance
// iterator: the candidate pool of the owner-driven search.
type cand struct {
	o    *dataset.Object
	d    float64   // d(o, q)
	mask kwds.Mask // query keywords covered by o
}

// coverSearch is the one cover enumeration of the owner-driven search:
// for a fixed query distance owner it enumerates the covers of the
// owner's missing keywords over the candidate pool, pruned against bound.
// OwnerExact, SolveAlpha, TopK and MinMax exact all run it; they differ
// only in the cost descriptor and the leaf sink.
//
// Two sinks exist. With top nil, a leaf is kept when it is strictly
// cheaper than bound, and bound drops to its cost (found, best). With top
// set, every leaf's irredundant set is offered to the top-k heap and
// bound follows the heap's k-th cost. Either way bound changes only at
// leaves, so the hot path — one node per call of dfs — reads a plain
// field and makes no indirect call.
type coverSearch struct {
	e     *Engine
	stats *Stats
	cost  ownerCost
	qi    *kwds.QueryIndex

	pool     []cand    // candidate members, ascending by d(·,q)
	bitCands [][]int32 // bitCands[b]: pool entries covering query bit b
	owner    cand
	chosen   []int32 // the partial set's non-owner members (pool indexes)

	// bound is the pruning bound: a partial set whose cost lower bound
	// reaches it is cut.
	bound float64

	// Keep-best sink: the cheapest leaf of the current owner, when found
	// (best is scratch), and the incumbent answer the owner loop keeps.
	found   bool
	best    []dataset.ObjectID
	set     []dataset.ObjectID
	setCost float64

	// Top-k sink, when non-nil; q prices the offered sets.
	top *topKHeap
	q   Query
}

// run enumerates the sets owned by owner. Every candidate member is a
// pool entry, and every non-owner member of a minimal set covers a
// keyword the owner lacks, so the enumeration branches over bitCands of
// the uncovered bits only.
func (s *coverSearch) run(owner cand) {
	s.owner, s.found = owner, false
	if s.qi.Full()&^owner.mask == 0 {
		s.leaf(0)
		return
	}
	if s.cost.combine(owner.d, 0) >= s.bound {
		s.stats.Prunes[trace.PruneOwnerBound]++
		return
	}
	s.dfs(owner.mask, 0)
}

// dfs extends the partial set {owner} ∪ chosen, which covers covered and
// has pairwise distance owner distance maxPair, by a candidate for the
// uncovered keyword with the fewest candidates.
func (s *coverSearch) dfs(covered kwds.Mask, maxPair float64) {
	s.e.chargeNode(s.stats)
	if covered == s.qi.Full() {
		s.leaf(maxPair)
		return
	}
	branchBit, branchLen := -1, math.MaxInt32
	for b := 0; b < s.qi.Size(); b++ {
		if covered&(1<<uint(b)) != 0 {
			continue
		}
		if n := len(s.bitCands[b]); n < branchLen {
			branchBit, branchLen = b, n
		}
	}
	for _, ci := range s.bitCands[branchBit] {
		c := s.pool[ci]
		if c.mask&^covered == 0 {
			s.stats.Prunes[trace.PruneNoNewKeyword]++
			continue // contributes nothing new
		}
		// Incremental pairwise distance owner bound.
		np := maxPair
		if d := c.o.Loc.Dist(s.owner.o.Loc); d > np {
			np = d
		}
		for _, pi := range s.chosen {
			if d := c.o.Loc.Dist(s.pool[pi].o.Loc); d > np {
				np = d
			}
		}
		if s.cost.combine(s.owner.d, np) >= s.bound && !s.e.Ablation.NoPairPrune {
			s.stats.Prunes[trace.PrunePairBound]++
			continue
		}
		s.chosen = append(s.chosen, ci)
		s.dfs(covered|c.mask, np)
		s.chosen = s.chosen[:len(s.chosen)-1]
	}
}

// leaf hands the feasible set {owner} ∪ chosen to the sink.
func (s *coverSearch) leaf(maxPair float64) {
	s.stats.SetsEvaluated++
	if s.top != nil {
		set := make([]dataset.ObjectID, 0, len(s.chosen)+1)
		set = append(set, s.owner.o.ID)
		for _, ci := range s.chosen {
			set = append(set, s.pool[ci].o.ID)
		}
		set = irredundant(s.e, s.qi, canonical(set))
		if s.top.offer(set, s.e.EvalCost(s.cost.kind, s.q.Loc, set), s.cost.kind) {
			s.found = true
			s.bound = s.top.bound()
		}
		return
	}
	if c := s.cost.combine(s.owner.d, maxPair); c < s.bound {
		s.bound, s.found = c, true
		s.best = append(s.best[:0], s.owner.o.ID)
		for _, ci := range s.chosen {
			s.best = append(s.best, s.pool[ci].o.ID)
		}
	}
}

// ownerExact is the distance owner-driven exact algorithm of the paper
// (MaxSum-Exact for cost == MaxSum, Dia-Exact for cost == Dia).
//
// It enumerates candidate query distance owners o_f — relevant objects in
// the ring d(o_f, q) ∈ [d_f, curCost) in ascending distance — and, for
// each, finds the cheapest feasible set having o_f as its query distance
// owner. All other members of such a set lie in the disk C(q, d(o_f, q)),
// which is exactly the pool of objects the iterator has already produced;
// the inner search is a keyword-ordered cover enumeration whose partial
// sets are pruned with the owner lower bound
// combine(d(o_f,q), maxPair(partial)) ≥ curCost — the same geometric facts
// the paper's pairwise distance owner / lens pruning exploits.
func (e *Engine) ownerExact(q Query, cost CostKind) (Result, error) {
	return e.ownerBest(q, ownerCost{kind: cost}, "owner_exact")
}

// ownerBest runs the owner loop with the keep-best sink: OwnerExact under
// MaxSum/Dia, and SolveAlpha's exact search under cost_α.
func (e *Engine) ownerBest(q Query, cost ownerCost, span string) (res Result, err error) {
	defer recoverBudget(&err)
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := e.tr.Begin(span)
	var stats Stats
	e.trackStats(&stats)
	seed, seedCost, df, err := e.nnSeed(q, cost.kind, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	if cost.alpha > 0 {
		seedCost = e.EvalCostAlpha(cost.alpha, q.Loc, seed)
	}
	curSet := canonical(seed)
	e.noteIncumbent(curSet, seedCost, cost.kind)
	stats.SetsEvaluated = 1

	// The pruning bound starts at the incumbent cost, except that a
	// grouped batch may pre-tighten it one ulp above a warm-start upper
	// bound (a finished neighbor's answer cost, feasible for this query
	// too — batchgroup.go). The warm bound is used ONLY for pruning,
	// never as an answer: any owner achieving the true optimum C has
	// d(o,q) ≤ C ≤ warm < bound, so it is neither skipped nor cut from
	// the pool, and the keep-best sink's strict acceptance (c < bound)
	// still finds its DFS-first C-cost leaf — the same answer the cold
	// run keeps (DESIGN.md §15).
	bound := seedCost
	if wb := e.warmBound; wb > 0 && wb < bound {
		bound = math.Nextafter(wb, math.Inf(1))
	}
	s := coverSearch{e: e, stats: &stats, cost: cost, qi: qi, bound: bound, set: curSet, setCost: seedCost}
	e.ownerLoop(q, df, &s)
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: s.set, Cost: s.setCost, Cost2: cost.kind, Stats: stats}, nil
}

// ownerLoop is the owner enumeration every owner-driven search except
// MinMax shares. It pops candidate query distance owners ascending by
// d(o,q), grows the candidate pool and bitCands with each, skips owners
// inside the d_f ring (no feasible set has its query distance owner
// closer than the farthest keyword NN), and runs s for every other owner
// until d(o,q) alone reaches s.bound. Under the keep-best sink each
// improvement becomes the incumbent (s.set) and is published for the
// degrade path. The pool and per-bit indexes recycle through the scratch
// pool across queries.
func (e *Engine) ownerLoop(q Query, df float64, s *coverSearch) {
	qi, stats := s.qi, s.stats
	scratch := getOwnerScratch()
	pool, bitCands := scratch.pool[:0], scratch.ensureBits(qi.Size())
	s.bitCands, s.chosen, s.best = bitCands, scratch.chosen[:0], scratch.bestSet[:0]
	defer func() {
		scratch.pool, scratch.chosen, scratch.bestSet = pool, s.chosen[:0], s.best[:0]
		putOwnerScratch(scratch)
	}()

	loop := e.tr.Begin("owner_loop")
	searchStart := time.Now()
	it := e.ownerIter(q, qi)
	breakRing := !e.Ablation.NoIncumbentBreak
	if breakRing {
		it.Limit(s.cost.ring(s.bound))
	}
	for {
		fault.Hit(fault.OwnerEnum)
		o, dof, ok := it.Next()
		if !ok {
			break
		}
		if s.cost.combine(dof, 0) >= s.bound {
			// Every set containing an object this far costs at least
			// s.bound, so the enumeration can stop (ablation A1 measures
			// what this break is worth by degrading it to a per-owner
			// skip).
			stats.Prunes[trace.PruneIncumbentBreak]++
			if breakRing {
				break
			}
			stats.CandidatesSeen++
			continue
		}
		mask := qi.MaskOf(o.Keywords)
		idx := int32(len(pool))
		pool = append(pool, cand{o: o, d: dof, mask: mask})
		for b := 0; b < qi.Size(); b++ {
			if mask&(1<<uint(b)) != 0 {
				bitCands[b] = append(bitCands[b], idx)
			}
		}
		stats.CandidatesSeen++
		e.pollCancel(stats.CandidatesSeen)

		if dof < df && !e.Ablation.NoOwnerRing {
			// o still enters the pool as a potential non-owner member.
			stats.Prunes[trace.PruneOwnerRing]++
			continue
		}
		stats.OwnersTried++
		osp := e.tr.Begin("best_with_owner")
		nodes0 := stats.NodesExpanded
		s.pool = pool
		s.run(pool[idx])
		if osp != nil {
			// Keep sub-search spans only for owners that reached the sink
			// — the iterations that explain the answer — and fold the
			// rest back into the loop span's aggregates.
			if s.found {
				osp.Attr("owner_id", float64(o.ID))
				osp.Attr("d_owner", dof)
				osp.Attr("nodes", float64(stats.NodesExpanded-nodes0))
				if s.top == nil {
					osp.Attr("cost", s.bound)
				}
				osp.End()
			} else {
				osp.Drop()
			}
		}
		if s.found {
			if s.top == nil {
				s.set, s.setCost = canonical(s.best), s.bound
				e.noteIncumbent(s.set, s.setCost, s.cost.kind)
			}
			if breakRing {
				it.Limit(s.cost.ring(s.bound))
			}
		}
	}
	stats.Phases.Search = time.Since(searchStart)
	if loop != nil {
		loop.Attr("candidates", float64(stats.CandidatesSeen))
		loop.Attr("owners_tried", float64(stats.OwnersTried))
		loop.Attr("nodes", float64(stats.NodesExpanded))
		loop.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		if s.top == nil {
			loop.Attr("cost", s.setCost)
		}
	}
	loop.End()
}
