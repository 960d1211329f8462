package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/invindex"
	"coskq/internal/metrics"
	"coskq/internal/shard"
)

type streams struct {
	paths   []string
	batches [][]byte
	writes  [][]byte
}

func genStreams(seed int64) streams {
	ds := genDataset(modeEngine, seed)
	inv := invindex.Build(ds)
	var s streams
	for _, q := range genPool(ds, inv, subSeed(seed, streamQueries), 256, []int{3, 6, 9},
		[]core.CostKind{core.MaxSum, core.Dia}, []core.Method{core.OwnerExact, core.OwnerAppro}) {
		s.paths = append(s.paths, q.path)
	}
	for _, b := range genBatches(ds, inv, subSeed(seed, streamBatches)) {
		s.batches = append(s.batches, b.body)
	}
	for _, w := range genWrites(ds.Len(), subSeed(seed, streamChurn), 16) {
		s.writes = append(s.writes, w.body)
	}
	return s
}

// The same seed gives byte-identical query, batch and churn streams,
// and another seed gives different ones.
func TestSameSeedSameStreams(t *testing.T) {
	a, b, c := genStreams(7), genStreams(7), genStreams(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 produced two different input streams")
	}
	if reflect.DeepEqual(a.paths, c.paths) || reflect.DeepEqual(a.batches, c.batches) || reflect.DeepEqual(a.writes, c.writes) {
		t.Fatal("seeds 7 and 8 share an input stream")
	}
	if len(a.writes) != 16 || !bytes.Contains(a.writes[0], []byte(`"op":`)) {
		t.Fatalf("churn stream malformed: %d batches", len(a.writes))
	}
}

// The hotel-batch batches form multi-member clusters and, replayed as
// the workload cycles through them, reach a nonzero keyword-NN cache hit
// rate on the served engine configuration, so the workload keeps
// exercising grouping and the cache.
func TestBatchWorkloadExercisesGroupingAndCache(t *testing.T) {
	ds := genDataset(modeBatch, 3)
	reg := metrics.NewRegistry()
	eng := core.NewEngine(ds, 0)
	eng.Metrics = core.NewEngineMetrics(reg)
	eng.EnableNNCache(batchNNCache)
	batches := genBatches(ds, eng.Inv, subSeed(3, streamBatches))
	for _, b := range append(batches[:8:8], batches[:8]...) {
		for i, item := range eng.SolveBatch(b.queries, b.cost, b.method, 0) {
			if item.Err != nil {
				t.Fatalf("batch item %d: %v", i, item.Err)
			}
		}
	}
	queries := reg.Counter("coskq_batch_queries_total").Value()
	clusters := reg.Counter("coskq_batch_clusters_total").Value()
	grouped := reg.Counter("coskq_batch_grouped_queries_total").Value()
	if grouped == 0 || clusters >= queries {
		t.Fatalf("no multi-member clusters: %d queries, %d clusters, %d grouped", queries, clusters, grouped)
	}
	if eng.NNCache.Hits() == 0 {
		t.Fatalf("NN cache never hit (%d misses)", eng.NNCache.Misses())
	}
}

func answerOf(eng *core.Engine, res core.Result) answer {
	a := answer{Cost: res.Cost}
	for _, id := range res.Set {
		o := eng.DS.Object(id)
		a.Objects = append(a.Objects, answerObj{
			ID: uint32(id), X: o.Loc.X, Y: o.Loc.Y, Keywords: wordsOf(eng.DS, o.Keywords),
		})
	}
	return a
}

// The checker accepts true answers and rejects perturbed ones: a cost
// one ulp off, a keyword left uncovered, an approximation beyond its
// proved ratio.
func TestCheckerRejectsPerturbedAnswers(t *testing.T) {
	ds := genDataset(modeEngine, 5)
	eng := core.NewEngine(ds, 0)
	eng.Parallelism = 1
	pool := genPool(ds, eng.Inv, 11, 24, []int{3, 6}, []core.CostKind{core.MaxSum, core.Dia}, []core.Method{core.OwnerExact})
	if err := computeRefs(eng, pool); err != nil {
		t.Fatal(err)
	}
	for i, q := range pool {
		res, err := eng.Solve(q.query(), q.cost, core.OwnerExact)
		if err != nil {
			t.Fatal(err)
		}
		good := answerOf(eng, res)
		if err := checkAnswer(good, q.loc, q.words, q.cost, q.method, q.ref, ds); err != nil {
			t.Fatalf("query %d: true answer rejected: %v", i, err)
		}

		ulp := good
		ulp.Cost = math.Nextafter(good.Cost, math.Inf(1))
		if checkAnswer(ulp, q.loc, q.words, q.cost, q.method, q.ref, ds) == nil {
			t.Fatalf("query %d: cost one ulp high accepted", i)
		}
		ulp.Cost = math.Nextafter(good.Cost, math.Inf(-1))
		if checkAnswer(ulp, q.loc, q.words, q.cost, q.method, q.ref, ds) == nil {
			t.Fatalf("query %d: cost one ulp low accepted", i)
		}

		uncovered := good
		uncovered.Objects = append([]answerObj(nil), good.Objects...)
		for j := range uncovered.Objects {
			uncovered.Objects[j].Keywords = removeWord(uncovered.Objects[j].Keywords, q.words[0])
		}
		if checkAnswer(uncovered, q.loc, q.words, q.cost, q.method, q.ref, nil) == nil {
			t.Fatalf("query %d: answer with %s uncovered accepted", i, q.words[0])
		}

		// An approximation may exceed the optimum only up to its ratio.
		ratio := core.ApproRatioBound(q.cost, core.OwnerAppro)
		if checkAnswer(good, q.loc, q.words, q.cost, core.OwnerAppro, good.Cost/ratio*0.999, nil) == nil {
			t.Fatalf("query %d: approximation beyond its ratio accepted", i)
		}
		if checkAnswer(good, q.loc, q.words, q.cost, core.OwnerAppro, math.Nextafter(good.Cost, math.Inf(1)), nil) == nil {
			t.Fatalf("query %d: approximation below the optimum accepted", i)
		}
	}
}

func removeWord(words []string, drop string) []string {
	var out []string
	for _, w := range words {
		if w != drop {
			out = append(out, w)
		}
	}
	return out
}

// The span-recording shard.Backend decorator leaves the router's answers
// identical to a single engine's, and records its spans.
func TestTracedBackendsMatchEngine(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "small", NumObjects: 3000, VocabSize: 120, AvgKeywords: 4, Clusters: 12, Seed: 9,
	})
	eng := core.NewEngine(ds, 0)
	eng.Parallelism = 1
	rt, err := shard.NewLocalRouter(ds, routedShards, shard.Subtree(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	rt.Backends = traceBackends(rec, rt.Backends)
	pool := genPool(ds, eng.Inv, 4, 40, []int{2, 4}, []core.CostKind{core.MaxSum, core.Dia}, []core.Method{core.OwnerExact, core.OwnerAppro})
	for i, q := range pool {
		id, end := rec.begin("shard.route", int64(i), 0)
		ans, err := rt.RouteWords(withSpan(context.Background(), int64(i), id), q.loc, q.words, q.cost, q.method)
		end()
		want, werr := eng.Solve(q.query(), q.cost, q.method)
		if err != nil || werr != nil {
			t.Fatalf("query %d: router err %v, engine err %v", i, err, werr)
		}
		if q.method == core.OwnerExact && (ans.Result.Cost != want.Cost || !reflect.DeepEqual(ans.Result.Set, want.Set)) {
			t.Fatalf("query %d: router %v %v, engine %v %v", i, ans.Result.Cost, ans.Result.Set, want.Cost, want.Set)
		}
		if q.method == core.OwnerAppro {
			exact, _ := eng.Solve(q.query(), q.cost, core.OwnerExact)
			if ans.Result.Cost < exact.Cost || ans.Result.Cost > core.ApproRatioBound(q.cost, q.method)*exact.Cost*(1+1e-12) {
				t.Fatalf("query %d: routed approximation %v outside ratio of %v", i, ans.Result.Cost, exact.Cost)
			}
		}
	}
	counts := map[string]int{}
	for _, s := range rec.snapshot() {
		counts[s.Name]++
		if s.Name != "shard.route" && s.Parent == 0 {
			t.Fatalf("%s span has no parent", s.Name)
		}
	}
	if counts["shard.route"] != len(pool) || counts["shard.nn"] == 0 || counts["shard.collect"] == 0 {
		t.Fatalf("span counts %v", counts)
	}
	self := selfTimes(rec.snapshot(), "shard.route")
	if len(self) != len(pool) {
		t.Fatalf("%d self times for %d routes", len(self), len(pool))
	}
	for _, d := range self {
		if d < 0 {
			t.Fatalf("negative self time %v", d)
		}
	}
}

// selfTimes subtracts the union of the children, not their sum.
func TestSelfTimesUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 60},  // overlaps the first
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	if got := selfTimes(spans, "p"); len(got) != 1 || got[0] != 40 {
		t.Fatalf("self time %v, want 40ns", got)
	}
}

// Failed requests, shed requests, wrong answers and missed sends stay in
// the latency samples, beyond any limit.
func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	due := time.Now()
	ok := record{due: due, start: due, end: due.Add(time.Millisecond), status: http.StatusOK}
	shed := ok
	shed.status = http.StatusTooManyRequests
	wrong := ok
	wrong.wrong = errors.New("exact cost differs")
	lat := latenciesMs([]record{ok, shed, wrong}, 2)
	if len(lat) != 5 || lat[0] != 1 {
		t.Fatalf("latencies %v", lat)
	}
	for _, l := range lat[1:] {
		if l < msOf(time.Hour) {
			t.Fatalf("failure recorded at %v ms", l)
		}
	}
	var tl tally
	for _, r := range []record{ok, shed, wrong} {
		if tl.count(r) && r.wrong != nil {
			tl.wrong++
		}
	}
	if tl.attempted != 3 || tl.failed() != 2 {
		t.Fatalf("tally %+v", tl)
	}
}
