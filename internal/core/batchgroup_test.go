package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// skewedBatch generates a production-shaped batch: most queries cluster
// around a few hot locations (zipfian popularity) with small location
// jitter and hot keyword combinations, plus a tail of unrelated queries.
func skewedBatch(rng *rand.Rand, n, vocab int) []Query {
	type hot struct {
		loc geo.Point
		kw  kwds.Set
	}
	hots := make([]hot, 4)
	for i := range hots {
		hots[i] = hot{
			loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			kw:  randQuery(rng, vocab, 2+rng.Intn(2)).Keywords,
		}
	}
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(hots)-1))
	qs := make([]Query, n)
	for i := range qs {
		if i%5 == 4 { // unrelated tail
			qs[i] = randQuery(rng, vocab, 1+rng.Intn(3))
			continue
		}
		h := hots[zipf.Uint64()]
		kw := h.kw
		if i%7 == 3 { // similar-but-not-identical keyword sets
			kw = kw.Union(kwds.NewSet(kwds.ID(rng.Intn(vocab))))
		}
		qs[i] = Query{
			Loc:      geo.Point{X: h.loc.X + rng.Float64()*0.2, Y: h.loc.Y + rng.Float64()*0.2},
			Keywords: kw,
		}
	}
	return qs
}

// requireGrouping fails unless the batch actually forms a multi-member
// cluster — otherwise the grouped differential tests would vacuously pass
// through the singleton path.
func requireGrouping(t *testing.T, e *Engine, queries []Query) {
	t.Helper()
	for _, cl := range e.groupBatch(queries) {
		if len(cl.idxs) > 1 {
			return
		}
	}
	t.Fatal("fixture batch produced no multi-member cluster")
}

// compareBatchItems asserts bit-identical grouped vs independent results:
// same error presence, exactly equal cost, deeply equal canonical set.
func compareBatchItems(t *testing.T, label string, got, want []BatchItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("%s item %d: err %v vs %v", label, i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		if got[i].Result.Cost != want[i].Result.Cost {
			t.Fatalf("%s item %d: cost %v vs %v (must be bit-identical)",
				label, i, got[i].Result.Cost, want[i].Result.Cost)
		}
		if !reflect.DeepEqual(got[i].Result.Set, want[i].Result.Set) {
			t.Fatalf("%s item %d: set %v vs %v", label, i, got[i].Result.Set, want[i].Result.Set)
		}
	}
}

// TestSolveBatchGroupedMatchesIndependent is the grouped differential:
// for every cost function and both owner-driven methods, across worker
// counts, a grouped batch returns bit-identical (cost, canonical set)
// results to an independent per-query run. This is the theorem the
// shared-scan, NN-share and warm-start machinery must uphold
// (batchgroup.go; DESIGN.md §15).
func TestSolveBatchGroupedMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	e := genEngine(rng, 400, 10, 3)
	queries := skewedBatch(rng, 32, 10)
	requireGrouping(t, e, queries)

	costs := []CostKind{MaxSum, Dia, Sum, MinMax, SumMax}
	methods := []Method{OwnerExact, OwnerAppro}
	for _, cost := range costs {
		for _, method := range methods {
			ref := make([]BatchItem, len(queries))
			for i, q := range queries {
				r, err := e.Solve(q, cost, method)
				ref[i] = BatchItem{Result: r, Err: err}
			}
			for _, workers := range []int{1, 3, 8} {
				label := cost.String() + "/" + method.String() + "/w" + string(rune('0'+workers))
				compareBatchItems(t, label, e.SolveBatch(queries, cost, method, workers), ref)
			}
		}
	}
}

// TestSolveBatchWarmStartsApplied: a hot cluster of near-identical
// queries chains warm starts (observable through the metrics sink), and
// the warm-started answers still match the cold independent run.
func TestSolveBatchWarmStartsApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	e := genEngine(rng, 400, 10, 3)
	e.Metrics = NewEngineMetrics(nil)
	queries := skewedBatch(rng, 32, 10)
	requireGrouping(t, e, queries)

	ref := make([]BatchItem, len(queries))
	for i, q := range queries {
		r, err := e.Solve(q, MaxSum, OwnerExact)
		ref[i] = BatchItem{Result: r, Err: err}
	}
	warm0 := e.Metrics.BatchWarmStarts()
	compareBatchItems(t, "warm", e.SolveBatch(queries, MaxSum, OwnerExact, 2), ref)
	if e.Metrics.BatchWarmStarts() == warm0 {
		t.Fatal("hot clusters applied no warm starts")
	}
}

// TestSolveBatchNNCacheOnOffIdentical: the engine-level NN cache — with a
// deliberately tiny capacity so evictions churn mid-run — never changes
// any answer, batched or single, across cost functions.
func TestSolveBatchNNCacheOnOffIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	e := genEngine(rng, 400, 10, 3)
	queries := skewedBatch(rng, 32, 10)

	cached := *e
	cached.EnableNNCache(16) // one entry per shard: constant eviction churn

	for _, cost := range []CostKind{MaxSum, Dia, Sum, MinMax, SumMax} {
		for _, method := range []Method{OwnerExact, OwnerAppro} {
			ref := make([]BatchItem, len(queries))
			for i, q := range queries {
				r, err := e.Solve(q, cost, method)
				ref[i] = BatchItem{Result: r, Err: err}
			}
			label := cost.String() + "/" + method.String()
			got := make([]BatchItem, len(queries))
			for i, q := range queries {
				r, err := cached.Solve(q, cost, method)
				got[i] = BatchItem{Result: r, Err: err}
			}
			compareBatchItems(t, label+"/single", got, ref)
			compareBatchItems(t, label+"/batch", cached.SolveBatch(queries, cost, method, 3), ref)
		}
	}
	if cached.NNCache.Hits() == 0 {
		t.Fatal("skewed workload produced no cache hits")
	}
	if cached.NNCache.Evictions() == 0 {
		t.Fatal("tiny cache never evicted (capacity too generous to stress validity)")
	}
}

// TestGroupBatchDeterministicPartition: grouping is a deterministic
// partition — identical across runs, every index exactly once, members
// ascending, unions within the QueryIndex capacity.
func TestGroupBatchDeterministicPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	e := genEngine(rng, 200, 10, 3)
	queries := skewedBatch(rng, 50, 10)

	a := e.groupBatch(queries)
	b := e.groupBatch(queries)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("groupBatch is not deterministic")
	}
	seen := make([]bool, len(queries))
	for _, cl := range a {
		if len(cl.union) > kwds.MaxQueryKeywords {
			t.Fatalf("cluster union %d exceeds QueryIndex capacity", len(cl.union))
		}
		for j, i := range cl.idxs {
			if seen[i] {
				t.Fatalf("query %d appears in two clusters", i)
			}
			seen[i] = true
			if j > 0 && cl.idxs[j-1] >= i {
				t.Fatalf("cluster members not ascending: %v", cl.idxs)
			}
			if !cl.union.Covers(queries[i].Keywords) {
				t.Fatalf("cluster union misses member %d keywords", i)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("query %d missing from the partition", i)
		}
	}
}

// TestSolveBatchPreCancelled: a batch whose context is already done runs
// nothing — the feeder and the per-member polls stop all work — and every
// item carries the context error.
func TestSolveBatchPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	e := genEngine(rng, 200, 8, 3)
	e.Metrics = NewEngineMetrics(nil)
	queries := skewedBatch(rng, 20, 8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.SolveBatchCtx(ctx, queries, MaxSum, OwnerExact, 2)
	for i := range out {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Fatalf("item %d err = %v, want Canceled", i, out[i].Err)
		}
		if out[i].Result.Set != nil {
			t.Fatalf("item %d ran anyway", i)
		}
	}
	if n := e.Metrics.QueriesTotal(); n != 0 {
		t.Fatalf("pre-cancelled batch recorded %d solves, want 0", n)
	}
}

// TestSolveBatchGroupedInfeasibleMember: an infeasible query inside a hot
// cluster fails alone; its cluster mates still answer, identically to an
// independent run.
func TestSolveBatchGroupedInfeasibleMember(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	e := genEngine(rng, 300, 10, 3)
	queries := skewedBatch(rng, 20, 10)
	// Poison one hot-cluster member with an uncoverable keyword while
	// keeping it Jaccard-similar to its mates: add the impossible keyword
	// to a copy of a hot query's set.
	queries[5].Keywords = queries[5].Keywords.Union(kwds.NewSet(999))
	requireGrouping(t, e, queries)

	ref := make([]BatchItem, len(queries))
	for i, q := range queries {
		r, err := e.Solve(q, MaxSum, OwnerExact)
		ref[i] = BatchItem{Result: r, Err: err}
	}
	if !errors.Is(ref[5].Err, ErrInfeasible) {
		t.Fatal("fixture: poisoned query should be infeasible")
	}
	compareBatchItems(t, "infeasible", e.SolveBatch(queries, MaxSum, OwnerExact, 1), ref)
}
