package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"coskq/internal/fault"
	"coskq/internal/testutil"
)

// The chaos suite arms seeded fault schedules against real searches and
// asserts the engine's robustness invariants hold under every injected
// failure: results are feasible or the error is typed, degraded costs
// never beat the optimum, injected hard panics are never swallowed, and
// no goroutines leak. Run it under -race (the CI chaos job does).

// chaosInvariants runs one faulted solve and checks the universal
// postconditions. exactCost is the unfaulted optimum for (q, cost).
func chaosInvariants(t *testing.T, e *Engine, q Query, cost CostKind, m Method, exactCost float64) {
	t.Helper()
	res, err := e.Solve(q, cost, m)
	if err != nil {
		if !errors.Is(err, ErrBudgetExceeded) &&
			!errors.Is(err, ErrInfeasible) &&
			!errors.Is(err, ErrUnsupported) &&
			!errors.Is(err, context.Canceled) &&
			!errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("method %v: untyped error under fault: %v", m, err)
		}
		return
	}
	if !e.Feasible(q, res.Set) {
		t.Errorf("method %v: infeasible set %v under fault", m, res.Set)
	}
	if got := e.EvalCost(cost, q.Loc, res.Set); got != res.Cost {
		t.Errorf("method %v: reported cost %v != recomputed %v", m, res.Cost, got)
	}
	if res.Cost < exactCost-1e-9 {
		t.Errorf("method %v: cost %v beats the optimum %v", m, res.Cost, exactCost)
	}
	if res.Degraded && res.Stats.DegradeReason == "" {
		t.Errorf("method %v: Degraded without a reason", m)
	}
}

// TestChaosSeededSchedules sweeps seeds, fault kinds, points, methods and
// degrade policies, asserting the invariants for each combination.
func TestChaosSeededSchedules(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(21))
	base := genEngine(rng, 700, 18, 4)
	queries := make([]Query, 6)
	exact := make([]float64, len(queries))
	for i := range queries {
		queries[i] = randQuery(rng, 18, 4)
		res, err := base.Solve(queries[i], MaxSum, OwnerExact)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		exact[i] = res.Cost
	}

	points := []fault.Point{fault.RTreeVisit, fault.OwnerEnum}
	kinds := []fault.Kind{fault.KindBudget, fault.KindCancel}
	methods := []Method{OwnerExact, CaoExact, OwnerAppro}
	for _, seed := range []uint64{1, 2, 3} {
		for _, p := range points {
			for _, k := range kinds {
				for _, policy := range []DegradePolicy{DegradeFail, DegradeIncumbent, DegradeFallbackAppro} {
					disarm := fault.Arm(seed, fault.Rule{Point: p, Kind: k, After: 3, Prob: 0.05})
					e := *base
					e.Degrade = policy
					for i, q := range queries {
						for _, m := range methods {
							chaosInvariants(t, &e, q, MaxSum, m, exact[i])
						}
					}
					disarm()
				}
			}
		}
	}
}

// TestChaosDeterministicSchedule: the same seed and rule produce the
// same outcome on repeated runs.
func TestChaosDeterministicSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	e := genEngine(rng, 500, 16, 3)
	e.Degrade = DegradeIncumbent
	q := randQuery(rng, 16, 3)

	type outcome struct {
		cost     float64
		degraded bool
		errIs    bool
	}
	run := func() outcome {
		disarm := fault.Arm(7, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindBudget, Every: 40})
		defer disarm()
		res, err := e.Solve(q, MaxSum, OwnerExact)
		return outcome{res.Cost, res.Degraded, err != nil}
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %+v != first %+v", i, got, first)
		}
	}
}

// TestChaosLatencyInjection: KindLatency slows the search without
// changing its answer.
func TestChaosLatencyInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := genEngine(rng, 300, 12, 3)
	q := randQuery(rng, 12, 3)
	want, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}

	disarm := fault.Arm(5, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindLatency, Every: 10, Latency: 100e3}) // 100µs
	defer disarm()
	got, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("latency-faulted solve: %v", err)
	}
	if got.Cost != want.Cost || got.Degraded {
		t.Errorf("latency changed the answer: (%v, degraded=%v) vs %v", got.Cost, got.Degraded, want.Cost)
	}
	if fault.Hits(fault.RTreeVisit) == 0 {
		t.Error("latency rule never hit")
	}
}

// TestChaosCrashNotSwallowed: a KindPanic firing is a stand-in for a
// programming error and must propagate out of Solve as a panic, not be
// converted into a degraded answer or a typed error.
func TestChaosCrashNotSwallowed(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(17))
	e := genEngine(rng, 400, 14, 3)
	e.Degrade = DegradeIncumbent // must NOT mask the crash
	q := randQuery(rng, 14, 3)

	disarm := fault.Arm(1, fault.Rule{Point: fault.OwnerEnum, Kind: fault.KindPanic, Every: 1, After: 2})
	defer disarm()
	defer func() {
		r := recover()
		if r == nil {
			t.Error("injected panic was swallowed")
			return
		}
		if _, ok := r.(fault.Crash); !ok {
			t.Errorf("panic payload %T, want fault.Crash", r)
		}
	}()
	e.Solve(q, MaxSum, OwnerExact)
}

// TestChaosMetricsConsistency: under injected budget trips the metrics
// sink still balances — every call is counted exactly once, and the
// degraded counter matches the number of degraded answers returned.
func TestChaosMetricsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	e := genEngine(rng, 600, 16, 4)
	e.Degrade = DegradeIncumbent
	e.Metrics = NewEngineMetrics(nil)

	disarm := fault.Arm(11, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindBudget, After: 5, Prob: 0.1})
	defer disarm()

	const calls = 40
	var degraded, failed uint64
	for i := 0; i < calls; i++ {
		q := randQuery(rng, 16, 4)
		res, err := e.Solve(q, MaxSum, OwnerExact)
		switch {
		case err != nil:
			failed++
		case res.Degraded:
			degraded++
		}
	}
	if got := e.Metrics.QueriesTotal(); got != calls {
		t.Errorf("queries_total = %d, want %d", got, calls)
	}
	if got := e.Metrics.DegradedTotal(); got != degraded {
		t.Errorf("degraded_queries_total = %d, want %d", got, degraded)
	}
	if degraded == 0 && failed == 0 {
		t.Error("fault schedule never fired; tighten the rule")
	}
}

// TestChaosDisarmedIsFree: after disarm, the engine answers exactly as
// an unfaulted engine (the injection points are pass-through).
func TestChaosDisarmedIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := genEngine(rng, 300, 12, 3)
	q := randQuery(rng, 12, 3)
	want, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}
	fault.Arm(3, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindBudget, Every: 1})()
	if fault.Armed() {
		t.Fatal("still armed after disarm")
	}
	got, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil || got.Cost != want.Cost {
		t.Errorf("disarmed solve: (%v, %v), want (%v, nil)", got.Cost, err, want.Cost)
	}
}
