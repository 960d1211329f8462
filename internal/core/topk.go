package core

// Top-k CoSKQ (an extension following Cao et al., TODS 2015): return the
// k cheapest feasible sets instead of only the best one. The owner-driven
// search adapts directly — the incumbent-cost bound becomes the k-th best
// cost — with one semantic refinement: the enumeration produces
// irredundant sets (no member can be removed without losing coverage).
// Under the max-composed costs a redundant superset never costs less than
// its irredundant subset, so excluding them is the useful ranking.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
)

// topKHeap keeps the best k candidate sets found so far, deduplicated by
// canonical membership.
type topKHeap struct {
	k    int
	sets []Result
	seen map[string]bool
}

func newTopKHeap(k int) *topKHeap {
	return &topKHeap{k: k, seen: make(map[string]bool)}
}

// bound returns the pruning threshold: the k-th best cost once k sets are
// known, +Inf before.
func (h *topKHeap) bound() float64 {
	if len(h.sets) < h.k {
		return math.Inf(1)
	}
	return h.sets[len(h.sets)-1].Cost
}

func setKey(ids []dataset.ObjectID) string {
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d,", id)
	}
	return sb.String()
}

// offer inserts a candidate set (already canonical) if it ranks in the
// top k and was not seen before, reporting whether it did.
func (h *topKHeap) offer(set []dataset.ObjectID, cost float64, kind CostKind) bool {
	key := setKey(set)
	if h.seen[key] {
		return false
	}
	if len(h.sets) == h.k && cost >= h.bound() {
		return false
	}
	h.seen[key] = true
	h.sets = append(h.sets, Result{Set: set, Cost: cost, Cost2: kind})
	sort.SliceStable(h.sets, func(i, j int) bool { return h.sets[i].Cost < h.sets[j].Cost })
	if len(h.sets) > h.k {
		evicted := h.sets[h.k]
		delete(h.seen, setKey(evicted.Set))
		h.sets = h.sets[:h.k]
	}
	return true
}

// TopK returns the k cheapest irredundant feasible sets for q under the
// MaxSum or Dia cost, best first (fewer when fewer exist). It reuses the
// distance owner-driven enumeration with the k-th best cost as the ring
// and pruning bound.
func (e *Engine) TopK(q Query, cost CostKind, k int) ([]Result, error) {
	return e.TopKCtx(context.Background(), q, cost, k)
}

// TopKCtx is TopK with cancellation, using the same per-call mechanism as
// SolveCtx: when ctx is cancelled, the enumeration unwinds promptly and
// the context's error is returned.
func (e *Engine) TopKCtx(ctx context.Context, q Query, cost CostKind, k int) ([]Result, error) {
	run, err := e.withCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer putNNMemo(run.nnmemo)
	defer putAnytime(run.any)
	return run.topK(q, cost, k)
}

// topK runs the enumeration and, when it is cut short, applies the
// engine's degrade policy: the partial ranking accumulated in the heap
// is itself the anytime answer (each entry marked Degraded), and with
// DegradeFallbackAppro an empty heap falls back to one approximate set.
func (e *Engine) topK(q Query, cost CostKind, k int) ([]Result, error) {
	start := time.Now()
	res, err := e.topKInner(q, cost, k)
	if err == nil {
		return res, nil
	}
	reason := degradeReason(err)
	if reason == "" || e.Degrade == DegradeFail {
		return res, err
	}
	var stats Stats
	if h := e.any; h != nil && h.stats != nil {
		stats = *h.stats
	}
	stats.Elapsed = time.Since(start)
	stats.DegradeReason = reason
	if h := e.any; h != nil && h.topk != nil && len(h.topk.sets) > 0 {
		out := make([]Result, len(h.topk.sets))
		for i, r := range h.topk.sets {
			r.Degraded = true
			r.Stats = stats
			out[i] = r
		}
		return out, nil
	}
	if e.Degrade == DegradeFallbackAppro {
		fb, fbErr := e.fallbackAppro(q, cost)
		if fbErr == nil {
			fb.Degraded = true
			fb.Stats.merge(&stats)
			fb.Stats.DegradeReason = reason
			fb.Stats.Elapsed = time.Since(start)
			return []Result{fb}, nil
		}
	}
	return nil, err
}

func (e *Engine) topKInner(q Query, cost CostKind, k int) (res []Result, err error) {
	defer recoverBudget(&err)
	if cost != MaxSum && cost != Dia {
		return nil, fmt.Errorf("%w: TopK supports MaxSum and Dia, got %v", ErrUnsupported, cost)
	}
	if k <= 0 {
		return nil, nil
	}
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := e.tr.Begin("topk")
	var stats Stats
	e.trackStats(&stats)
	// The seed's irredundant form may be cheaper than N(q); it is
	// priced afresh below.
	seed, _, df, err := e.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return nil, err
	}
	stats.SetsEvaluated = 1

	top := newTopKHeap(k)
	e.trackTopK(top)
	verifySp := e.tr.Begin("verify")
	seedSet := irredundant(e, qi, canonical(seed))
	top.offer(seedSet, e.EvalCost(cost, q.Loc, seedSet), cost)
	verifySp.End()

	s := coverSearch{e: e, stats: &stats, cost: ownerCost{kind: cost}, qi: qi, bound: top.bound(), top: top, q: q}
	e.ownerLoop(q, df, &s)
	algo.End()
	// TopKCtx does not route through SolveCtx, so fold the prune counters
	// into the trace here.
	e.tr.AddPrunes(stats.Prunes)

	for i := range top.sets {
		top.sets[i].Stats = stats
		top.sets[i].Stats.Elapsed = time.Since(start)
	}
	return top.sets, nil
}

// irredundant drops members whose removal keeps the set feasible
// (greedily, farthest-from-query first), yielding the canonical
// irredundant form used by the top-k ranking.
func irredundant(e *Engine, qi *kwds.QueryIndex, set []dataset.ObjectID) []dataset.ObjectID {
	out := append([]dataset.ObjectID(nil), set...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for i := 0; i < len(out); {
		var m kwds.Mask
		for j, id := range out {
			if j == i {
				continue
			}
			m |= qi.MaskOf(e.DS.Object(id).Keywords)
		}
		if m == qi.Full() {
			out = append(out[:i], out[i+1:]...)
		} else {
			i++
		}
	}
	return out
}
