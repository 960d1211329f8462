package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"coskq/internal/kwds"
	"coskq/internal/testutil"
)

func TestSolveBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	e := genEngine(rng, 500, 10, 3)
	queries := make([]Query, 40)
	for i := range queries {
		queries[i] = randQuery(rng, 10, 1+rng.Intn(4))
	}
	// Make one query infeasible on purpose.
	queries[7].Keywords = kwds.NewSet(999)

	batch := e.SolveBatch(queries, MaxSum, OwnerExact, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch length %d", len(batch))
	}
	for i, q := range queries {
		seq, seqErr := e.Solve(q, MaxSum, OwnerExact)
		if (batch[i].Err == nil) != (seqErr == nil) {
			t.Fatalf("query %d: batch err %v vs sequential %v", i, batch[i].Err, seqErr)
		}
		if seqErr != nil {
			continue
		}
		if math.Abs(batch[i].Result.Cost-seq.Cost) > 1e-12 {
			t.Fatalf("query %d: batch cost %v vs sequential %v", i, batch[i].Result.Cost, seq.Cost)
		}
	}
	if batch[7].Err != ErrInfeasible {
		t.Fatalf("query 7 should be infeasible in the batch, got %v", batch[7].Err)
	}
}

func TestSolveBatchWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	e := genEngine(rng, 200, 8, 3)
	queries := make([]Query, 10)
	for i := range queries {
		queries[i] = randQuery(rng, 8, 2)
	}
	ref := e.SolveBatch(queries, Dia, OwnerAppro, 1)
	for _, workers := range []int{0, 2, 16, -3} {
		got := e.SolveBatch(queries, Dia, OwnerAppro, workers)
		for i := range got {
			if (got[i].Err == nil) != (ref[i].Err == nil) {
				t.Fatalf("workers=%d query %d error mismatch", workers, i)
			}
			if got[i].Err == nil && got[i].Result.Cost != ref[i].Result.Cost {
				t.Fatalf("workers=%d query %d cost mismatch", workers, i)
			}
		}
	}
}

// TestSolveBatchCtxCancelBetweenItems cancels a single-worker batch
// after a known prefix has completed: the completed items keep their
// results, the in-flight item unwinds with the context error, and the
// queued tail is marked without running. Afterwards the serial alloc
// guard re-runs to prove the unwound items returned their pooled scratch
// (nnmemo, anytime holders) — a leak shows up as fresh allocations.
func TestSolveBatchCtxCancelBetweenItems(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(53))
	e := genEngine(rng, 800, 8, 3)
	e.Metrics = NewEngineMetrics(nil)

	// Items 0-2 are linear under Brute (one keyword each); item 3 is an
	// astronomically large search only cancellation can end; 4+ queue
	// behind it on the single worker.
	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = randQuery(rng, 8, 1)
	}
	queries[3] = slowQuery(8)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []BatchItem, 1)
	go func() { done <- e.SolveBatchCtx(ctx, queries, MaxSum, Brute, 1) }()

	// The metrics sink counts each finished solve, so QueriesTotal()==3
	// means exactly the prefix completed and item 3 is in flight.
	testutil.WaitFor(t, 30*time.Second, "prefix of 3 items to complete", func() bool {
		return e.Metrics.QueriesTotal() >= 3
	})
	cancel()

	var out []BatchItem
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch did not return")
	}

	for i := 0; i < 3; i++ {
		if out[i].Err != nil {
			t.Errorf("completed item %d lost its result: %v", i, out[i].Err)
			continue
		}
		if !e.Feasible(queries[i], out[i].Result.Set) {
			t.Errorf("completed item %d: infeasible set %v", i, out[i].Result.Set)
		}
	}
	if !errors.Is(out[3].Err, context.Canceled) {
		t.Errorf("in-flight item err = %v, want Canceled", out[3].Err)
	}
	for i := 4; i < len(out); i++ {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Errorf("queued item %d err = %v, want Canceled", i, out[i].Err)
		}
		if out[i].Result.Set != nil {
			t.Errorf("queued item %d ran anyway: %v", i, out[i].Result.Set)
		}
	}

	// Pool-scratch leak guard: same bound as TestOwnerExactAllocs. The
	// sink is detached because labeled counters format their keys.
	al := *e
	al.Metrics = nil
	q := randQuery(rng, 8, 2)
	if _, err := al.Solve(q, MaxSum, OwnerExact); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	got := testing.AllocsPerRun(30, func() {
		if _, err := al.Solve(q, MaxSum, OwnerExact); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 60
	if got > maxAllocs {
		t.Errorf("allocs after cancelled batch = %.1f/op, want <= %d (pool scratch leaked?)", got, maxAllocs)
	}
}

func TestSolveBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	e := genEngine(rng, 50, 5, 2)
	if got := e.SolveBatch(nil, MaxSum, OwnerExact, 4); len(got) != 0 {
		t.Fatal("empty batch should return empty slice")
	}
}
