package core

import (
	"math/rand"
	"testing"
)

// TestOwnerExactAllocs pins the zero-alloc hot path: after warmup, the
// pooled serial search must run within a small fixed allocation count per
// query (result set, canonical copies, iterator state — not the candidate
// pool, bit indexes, or partial-set scratch, which all recycle).
func TestOwnerExactAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	e := genEngine(rng, 700, 20, 4)
	queries := make([]Query, 4)
	for i := range queries {
		queries[i] = randQuery(rng, 20, 3)
	}
	for _, m := range []Method{OwnerExact, PairsExact, CaoExact} {
		// Warm the scratch pools.
		for _, q := range queries {
			if _, err := e.Solve(q, MaxSum, m); err != nil {
				t.Fatalf("%v warmup: %v", m, err)
			}
		}
		q := queries[0]
		got := testing.AllocsPerRun(30, func() {
			if _, err := e.Solve(q, MaxSum, m); err != nil {
				t.Fatal(err)
			}
		})
		// The bound is deliberately loose enough to absorb iterator and
		// result-set allocations but tight enough that reverting any one
		// scratch pool (candidates, bitCands, partial sets) blows it.
		const maxAllocs = 60
		if got > maxAllocs {
			t.Errorf("%v: %.1f allocs/op, want ≤ %d", m, got, maxAllocs)
		}
	}
}
