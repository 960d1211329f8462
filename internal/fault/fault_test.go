package fault

import (
	"sync"
	"testing"
	"time"
)

func TestDisarmedHitIsNoop(t *testing.T) {
	Disarm()
	for i := 0; i < 1000; i++ {
		Hit(RTreeVisit) // must not panic, sleep, or count
	}
	if Hits(RTreeVisit) != 0 {
		t.Fatalf("Hits while disarmed = %d, want 0", Hits(RTreeVisit))
	}
}

func TestEveryScheduleDeterministic(t *testing.T) {
	run := func() []int {
		defer Arm(1, Rule{Point: OwnerEnum, Kind: KindBudget, After: 2, Every: 3})()
		var fired []int
		for i := 1; i <= 20; i++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						u, ok := r.(Unwind)
						if !ok || u.Kind != KindBudget || u.Point != OwnerEnum {
							t.Fatalf("unexpected panic payload %v", r)
						}
						fired = append(fired, i)
					}
				}()
				Hit(OwnerEnum)
			}()
		}
		return fired
	}
	a, b := run(), run()
	// After=2, Every=3: fires at hit ordinals 5, 8, 11, 14, 17, 20.
	want := []int{5, 8, 11, 14, 17, 20}
	if len(a) != len(want) {
		t.Fatalf("firings = %v, want %v", a, want)
	}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("firings = %v / %v, want %v", a, b, want)
		}
	}
}

func TestProbScheduleSeededAndReproducible(t *testing.T) {
	count := func(seed uint64) int {
		defer Arm(seed, Rule{Point: RTreeVisit, Kind: KindCancel, Prob: 0.25})()
		fired := 0
		for i := 0; i < 400; i++ {
			func() {
				defer func() {
					if recover() != nil {
						fired++
					}
				}()
				Hit(RTreeVisit)
			}()
		}
		return fired
	}
	a, a2 := count(7), count(7)
	if a != a2 {
		t.Fatalf("same seed fired %d then %d times; want deterministic", a, a2)
	}
	if a < 50 || a > 150 {
		t.Errorf("seed 7, p=0.25, 400 hits: fired %d times, want roughly 100", a)
	}
	if b := count(8); b == a {
		t.Logf("seeds 7 and 8 fired identically (%d); suspicious but possible", a)
	}
}

func TestLatencyRuleSleeps(t *testing.T) {
	defer Arm(3, Rule{Point: ServerHandle, Kind: KindLatency, Every: 1, Latency: 20 * time.Millisecond})()
	start := time.Now()
	Hit(ServerHandle)
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("latency rule slept %v, want >= 20ms", d)
	}
}

func TestCrashPayload(t *testing.T) {
	defer Arm(4, Rule{Point: OwnerEnum, Kind: KindPanic, Every: 1})()
	defer func() {
		r := recover()
		if _, ok := r.(Crash); !ok {
			t.Fatalf("recover() = %v (%T), want Crash", r, r)
		}
	}()
	Hit(OwnerEnum)
}

func TestConcurrentHitsRace(t *testing.T) {
	defer Arm(5, Rule{Point: OwnerEnum, Kind: KindBudget, Every: 50})()
	var wg sync.WaitGroup
	var fired sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				func() {
					defer func() {
						if recover() != nil {
							fired.Store(g, true)
						}
					}()
					Hit(OwnerEnum)
				}()
			}
		}(g)
	}
	wg.Wait()
	if got := Hits(OwnerEnum); got != 800 {
		t.Errorf("Hits = %d, want 800", got)
	}
}

func TestUnwindImplementsError(t *testing.T) {
	var err error = Unwind{Point: RTreeVisit, Kind: KindCancel}
	if err.Error() == "" {
		t.Fatal("empty Error()")
	}
}
