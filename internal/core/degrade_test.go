package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// hardQuery returns a (engine, query, full-effort result) triple where the
// exact search does enough work that a half-budget trips mid-search.
func hardQuery(t *testing.T, seed int64) (*Engine, Query, Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := genEngine(rng, 900, 20, 4)
	q := randQuery(rng, 20, 4)
	ref := *e
	res, err := ref.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if res.Stats.NodesExpanded < 8 {
		t.Skipf("query too easy to trip mid-search (%d nodes)", res.Stats.NodesExpanded)
	}
	return e, q, res
}

// TestDegradeIncumbentBudget: with Degrade=Incumbent and a tripping
// NodeBudget, Solve returns a feasible set with Degraded=true where the
// default policy returns ErrBudgetExceeded, and the degraded cost upper
// bounds the exact cost.
func TestDegradeIncumbentBudget(t *testing.T) {
	e, q, exact := hardQuery(t, 5)
	run := *e
	run.NodeBudget = exact.Stats.NodesExpanded / 2

	// Seed behavior: DegradeFail (the zero value) returns the error.
	if _, err := run.Solve(q, MaxSum, OwnerExact); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("DegradeFail: err = %v, want ErrBudgetExceeded", err)
	}

	run.Degrade = DegradeIncumbent
	res, err := run.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("DegradeIncumbent: err = %v, want anytime answer", err)
	}
	if !res.Degraded {
		t.Errorf("Degraded = false, want true")
	}
	if res.Stats.DegradeReason != DegradeReasonBudget {
		t.Errorf("DegradeReason = %q, want %q", res.Stats.DegradeReason, DegradeReasonBudget)
	}
	if !e.Feasible(q, res.Set) {
		t.Errorf("degraded set %v is not feasible", res.Set)
	}
	if res.Cost < exact.Cost {
		t.Errorf("degraded cost %v < exact cost %v", res.Cost, exact.Cost)
	}
	if got := e.EvalCost(MaxSum, q.Loc, res.Set); got != res.Cost {
		t.Errorf("reported cost %v != recomputed %v", res.Cost, got)
	}
}

// TestDegradeFailMatchesSeed: with Degrade=Fail the outcome is identical
// to an engine that has never heard of degradation — same set, same
// cost, same error — across methods and costs.
func TestDegradeFailMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := genEngine(rng, 400, 15, 3)
	for i := 0; i < 20; i++ {
		q := randQuery(rng, 15, 3)
		for _, m := range []Method{OwnerExact, OwnerAppro, CaoExact, CaoAppro2} {
			ref := *e
			want, wantErr := ref.Solve(q, MaxSum, m)

			run := *e
			run.Degrade = DegradeFail
			got, gotErr := run.Solve(q, MaxSum, m)
			if !errors.Is(gotErr, wantErr) && !errors.Is(wantErr, gotErr) {
				t.Fatalf("%v: err %v vs %v", m, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.Cost != want.Cost || len(got.Set) != len(want.Set) || got.Degraded {
				t.Fatalf("%v: (%v, %v, degraded=%v) vs (%v, %v)", m, got.Set, got.Cost, got.Degraded, want.Set, want.Cost)
			}
			for j := range got.Set {
				if got.Set[j] != want.Set[j] {
					t.Fatalf("%v: set %v vs %v", m, got.Set, want.Set)
				}
			}
		}
	}
}

// TestDegradeStatsFinalized: even under the default fail policy, a
// budget-tripped query's Stats carry the effort spent before the trip
// (satellite: slowlog/metrics accounting of failed queries).
func TestDegradeStatsFinalized(t *testing.T) {
	e, q, exact := hardQuery(t, 5)
	run := *e
	run.NodeBudget = exact.Stats.NodesExpanded / 2
	res, err := run.Solve(q, MaxSum, OwnerExact)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res.Stats.NodesExpanded == 0 {
		t.Error("Stats.NodesExpanded = 0 on budget trip, want the aborted effort")
	}
	if res.Stats.NodesExpanded < run.NodeBudget {
		t.Errorf("Stats.NodesExpanded = %d, want >= budget %d at the trip", res.Stats.NodesExpanded, run.NodeBudget)
	}
	if res.Stats.Elapsed == 0 {
		t.Error("Stats.Elapsed = 0 on budget trip, want wall time")
	}
}

// TestDegradeCancellation: a cancelled exact search degrades to the
// incumbent with reason "cancelled" / "deadline" instead of the context
// error.
func TestDegradeCancellation(t *testing.T) {
	e, q, _ := hardQuery(t, 5)
	run := *e
	run.Degrade = DegradeIncumbent

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before entry: no incumbent possible, error stands
	if _, err := run.SolveCtx(ctx, q, MaxSum, OwnerExact); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	res, err := run.SolveCtx(dctx, q, MaxSum, OwnerExact)
	if errors.Is(err, context.DeadlineExceeded) {
		return // tripped before the seed completed: acceptable fail
	}
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if res.Degraded && res.Stats.DegradeReason != DegradeReasonDeadline {
		t.Errorf("DegradeReason = %q, want %q", res.Stats.DegradeReason, DegradeReasonDeadline)
	}
}

// TestDegradeFallbackAppro: a method that maintains no incumbent (Brute)
// tripping on entry still yields a feasible approximate answer under
// DegradeFallbackAppro, and keeps failing under DegradeIncumbent.
func TestDegradeFallbackAppro(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := genEngine(rng, 300, 12, 3)
	q := randQuery(rng, 12, 3)
	ref := *e
	exact, err := ref.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	run := *e
	run.NodeBudget = 1
	run.Degrade = DegradeIncumbent
	if _, err := run.Solve(q, MaxSum, Brute); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Brute + Incumbent: err = %v, want ErrBudgetExceeded (no incumbent exists)", err)
	}

	run.Degrade = DegradeFallbackAppro
	res, err := run.Solve(q, MaxSum, Brute)
	if err != nil {
		t.Fatalf("Brute + FallbackAppro: %v", err)
	}
	if !res.Degraded || res.Stats.DegradeReason != DegradeReasonBudget {
		t.Errorf("Degraded=%v reason=%q, want true/%q", res.Degraded, res.Stats.DegradeReason, DegradeReasonBudget)
	}
	if !e.Feasible(q, res.Set) {
		t.Errorf("fallback set %v not feasible", res.Set)
	}
	if res.Cost < exact.Cost {
		t.Errorf("fallback cost %v < exact %v", res.Cost, exact.Cost)
	}
}

// TestDegradeInfeasibleNotMasked: degradation must never fabricate an
// answer for an infeasible query.
func TestDegradeInfeasibleNotMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := genEngine(rng, 100, 5, 2)
	q := randQuery(rng, 5, 2)
	// Force infeasibility with a keyword id beyond the vocabulary.
	q.Keywords = append(append(q.Keywords[:0:0], q.Keywords...), 9999)
	for _, p := range []DegradePolicy{DegradeFail, DegradeIncumbent, DegradeFallbackAppro} {
		run := *e
		run.Degrade = p
		if _, err := run.Solve(q, MaxSum, OwnerExact); !errors.Is(err, ErrInfeasible) {
			t.Errorf("policy %v: err = %v, want ErrInfeasible", p, err)
		}
	}
}

// TestTopKDegrade: a budget-tripped TopK returns the partial ranking,
// each entry marked degraded, under DegradeIncumbent.
func TestTopKDegrade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := genEngine(rng, 600, 18, 4)
	q := randQuery(rng, 18, 4)
	ref := *e
	full, err := ref.TopK(q, MaxSum, 3)
	if err != nil {
		t.Fatalf("reference topk: %v", err)
	}
	if len(full) == 0 || full[0].Stats.NodesExpanded < 8 {
		t.Skip("query too easy")
	}

	run := *e
	run.NodeBudget = full[0].Stats.NodesExpanded / 2
	if _, err := run.TopK(q, MaxSum, 3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("DegradeFail topk: err = %v, want ErrBudgetExceeded", err)
	}

	run.Degrade = DegradeIncumbent
	got, err := run.TopK(q, MaxSum, 3)
	if err != nil {
		t.Fatalf("DegradeIncumbent topk: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("empty degraded ranking, want the partial heap")
	}
	for i, r := range got {
		if !r.Degraded {
			t.Errorf("result %d: Degraded = false", i)
		}
		if !e.Feasible(q, r.Set) {
			t.Errorf("result %d: set %v not feasible", i, r.Set)
		}
	}
	// The degraded best can never beat the true best.
	if got[0].Cost < full[0].Cost {
		t.Errorf("degraded best %v < true best %v", got[0].Cost, full[0].Cost)
	}
}

// TestParseDegradePolicy covers the flag spellings.
func TestParseDegradePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want DegradePolicy
		ok   bool
	}{
		{"", DegradeFail, true},
		{"fail", DegradeFail, true},
		{"incumbent", DegradeIncumbent, true},
		{"fallback", DegradeFallbackAppro, true},
		{"appro", DegradeFallbackAppro, true},
		{"bogus", DegradeFail, false},
	}
	for _, c := range cases {
		got, ok := ParseDegradePolicy(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseDegradePolicy(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}
