package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/epoch"
	"coskq/internal/geo"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/shard"
)

// Replay sizes of the traced run. They are fixed so that the counts the
// program reports (nodes, candidates, pool sizes) repeat exactly.
func (r *run) replayN() int {
	if r.w.mode == modeRouted {
		return 96
	}
	return 256
}

func (r *run) buildReps() int {
	if r.w.mode == modeRouted {
		return 2
	}
	return 5
}

// layers runs the direct replays of the traced run: calls into each
// module's public functions, each inside its own span, and reports the
// per-layer metrics derived from those spans.
func (r *run) layers() error {
	n := min(r.replayN(), len(r.pool))
	qs := r.pool[:n]
	r.rec.setOn(true)
	defer r.rec.setOn(false)

	base := r.st.engine()
	if base == nil { // routed: a single engine over the whole dataset
		base = r.ref
	}
	eng := *base
	eng.Metrics, eng.NNCache, eng.Parallelism = nil, nil, 0
	serial := eng
	serial.Parallelism = 1
	if r.w.mode == modeLive {
		// The served generation re-interned the vocabulary; map the
		// replay queries onto it.
		qs = resolvePool(eng.DS, qs)
	}

	if err := r.serverLayer(qs); err != nil {
		return err
	}
	solveP50 := r.coreLayer(&eng, &serial, qs)
	r.batchLayer(&eng, &serial, qs)
	r.irtreeLayer(&eng, qs)
	if err := r.shardLayer(eng.DS, qs, solveP50); err != nil {
		return err
	}
	return r.epochLayer(&eng)
}

// directSolve is the call the primary request's handler makes into the
// layer below it, on the same request.
func (r *run) directSolve(ctx context.Context, i int) error {
	switch r.w.mode {
	case modeBatch:
		b := &r.batches[i%len(r.batches)]
		_ = r.st.eng.SolveBatchCtx(ctx, b.queries, b.cost, b.method, 0)
		return nil
	case modeRouted:
		q := &r.pool[i]
		_, err := r.st.router.RouteWords(ctx, q.loc, q.words, q.cost, q.method)
		return err
	}
	q := &r.pool[i]
	eng := r.st.engine()
	kw, ok := resolve(eng.DS, q.words)
	if !ok {
		return fmt.Errorf("query %d: keywords missing from the served data", i)
	}
	_, err := eng.SolveCtx(ctx, core.Query{Loc: q.loc, Keywords: kw}, q.cost, q.method)
	return err
}

func (r *run) primaryRequest(i int) *http.Request {
	if r.w.mode == modeBatch {
		b := &r.batches[i%len(r.batches)]
		req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(string(b.body)))
		req.Header.Set("Content-Type", "application/json")
		return req
	}
	return httptest.NewRequest(http.MethodGet, r.pool[i].path, nil)
}

// serverLayer times, per request, a serial loopback round trip, the
// public handler on an httptest recorder, and the handler's direct call
// into the layer below; then the handler's allocations.
func (r *run) serverLayer(qs []querySpec) error {
	n := len(qs)
	if r.w.mode == modeBatch {
		n = min(n, 2*len(r.batches))
	}
	var handler, overhead, loopback []float64
	for i := 0; i < n; i++ {
		loop := r.primaryLoopback(i)
		if !loop.ok() {
			return fmt.Errorf("loopback replay %d: status %d %v", i, loop.status, loop.err)
		}
		tLoop := loop.end.Sub(loop.start)
		rr := httptest.NewRecorder()
		req := r.primaryRequest(i)
		id, end := r.rec.begin("server.handler", int64(i), 0)
		req = req.WithContext(withSpan(req.Context(), int64(i), id))
		start := time.Now()
		r.st.handler.ServeHTTP(rr, req)
		tH := time.Since(start)
		end()
		if rr.Code != http.StatusOK {
			return fmt.Errorf("handler replay %d: status %d", i, rr.Code)
		}
		var derr error
		tD := r.rec.timed(r.directSpan(), int64(i), id, func() { derr = r.directSolve(context.Background(), i) })
		if derr != nil {
			return derr
		}
		handler = append(handler, usOf(tH))
		overhead = append(overhead, usOf(tH-tD))
		loopback = append(loopback, usOf(tLoop-tH))
	}
	r.out.add("server.handler_p50_us", median(handler), "us")
	r.out.add("server.overhead_p50_us", median(overhead), "us")
	r.out.add("server.loopback_p50_us", median(loopback), "us")
	r.rec.setOn(false)
	mallocs, _ := allocDelta(func() {
		for i := 0; i < n; i++ {
			r.st.handler.ServeHTTP(httptest.NewRecorder(), r.primaryRequest(i))
		}
	})
	r.rec.setOn(true)
	r.out.add("server.allocs_per_query", float64(mallocs)/float64(n)/r.perRequest(), "allocs")
	return nil
}

// primaryLoopback sends the i-th primary request over loopback.
func (r *run) primaryLoopback(i int) record {
	if r.w.mode == modeBatch {
		return r.cl.do(http.MethodPost, "/batch", r.batches[i%len(r.batches)].body, time.Now())
	}
	return r.cl.do(http.MethodGet, r.pool[i].path, nil, time.Now())
}

func (r *run) directSpan() string {
	switch r.w.mode {
	case modeBatch:
		return "core.solve_batch"
	case modeRouted:
		return "shard.route"
	}
	return "core.solve"
}

// coreLayer replays the queries on the workload's engine configuration
// and on a serial one, and returns the default configuration's p50 in µs.
func (r *run) coreLayer(eng, serial *core.Engine, qs []querySpec) float64 {
	var def, ser []float64
	var nodes, cands, owners, sets, seed, search, elapsed float64
	ctx := context.Background()
	for i, q := range qs {
		d := r.rec.timed("core.solve", int64(i), 0, func() { _, _ = eng.SolveCtx(ctx, q.query(), q.cost, q.method) })
		def = append(def, usOf(d))
		start := time.Now()
		res, err := serial.SolveCtx(ctx, q.query(), q.cost, q.method)
		ser = append(ser, usOf(time.Since(start)))
		if err != nil {
			continue
		}
		st := res.Stats
		nodes += float64(st.NodesExpanded)
		cands += float64(st.CandidatesSeen)
		owners += float64(st.OwnersTried)
		sets += float64(st.SetsEvaluated)
		seed += float64(st.Phases.Seed)
		search += float64(st.Phases.Search)
		elapsed += float64(st.Elapsed)
	}
	k := float64(len(qs))
	r.out.add("core.solve_p50_us", median(def), "us")
	r.out.add("core.solve_p99_us", quantile(def, 0.99), "us")
	r.out.add("core.parallel_over_serial", median(def)/median(ser), "ratio")
	r.out.add("core.nodes_per_query", nodes/k, "count")
	r.out.add("core.candidates_per_query", cands/k, "count")
	r.out.add("core.owners_per_query", owners/k, "count")
	r.out.add("core.sets_per_query", sets/k, "count")
	r.out.add("core.seed_frac", seed/elapsed, "ratio")
	r.out.add("core.search_frac", search/elapsed, "ratio")
	r.rec.setOn(false)
	mallocs, bytes := allocDelta(func() {
		for _, q := range qs {
			_, _ = eng.SolveCtx(ctx, q.query(), q.cost, q.method)
		}
	})
	r.rec.setOn(true)
	r.out.add("core.allocs_per_solve", float64(mallocs)/k, "allocs")
	r.out.add("core.bytes_per_solve", float64(bytes)/k, "B")

	var builds []float64
	for i := 0; i < r.buildReps(); i++ {
		d := r.rec.timed("core.new_engine", int64(i), 0, func() { _ = core.NewEngine(eng.DS, 0) })
		builds = append(builds, msOf(d))
	}
	r.out.add("core.new_engine_ms", median(builds), "ms")
	return median(def)
}

// replayBatches returns the workload's batches, or for singleton
// workloads its replay queries cut into 64-query batches of one cost
// and method each.
func (r *run) replayBatches(qs []querySpec) []batchSpec {
	if r.w.mode == modeBatch {
		return r.batches[:min(len(r.batches), 8)]
	}
	type key struct {
		c core.CostKind
		m core.Method
	}
	groups := map[key]*batchSpec{}
	var order []key
	var out []batchSpec
	for _, q := range qs {
		k := key{q.cost, q.method}
		g, ok := groups[k]
		if !ok {
			g = &batchSpec{cost: q.cost, method: q.method}
			groups[k] = g
			order = append(order, k)
		}
		g.queries = append(g.queries, q.query())
		if len(g.queries) == batchSize {
			out = append(out, *g)
			groups[k] = &batchSpec{cost: q.cost, method: q.method}
		}
	}
	for _, k := range order {
		if g := groups[k]; len(g.queries) > 0 {
			out = append(out, *g)
		}
	}
	return out
}

// batchLayer times SolveBatch per query, the grouped speedup against an
// independent loop (both serial), and the keyword-NN cache hit rate.
func (r *run) batchLayer(eng, serial *core.Engine, qs []querySpec) {
	batches := r.replayBatches(qs)
	ctx := context.Background()
	var batchT, loopT, groupT time.Duration
	total := 0
	for i, b := range batches {
		m := b.method
		batchT += r.rec.timed("core.solve_batch", int64(i), 0, func() { _ = eng.SolveBatchCtx(ctx, b.queries, b.cost, m, 0) })
		start := time.Now()
		for _, q := range b.queries {
			_, _ = serial.SolveCtx(ctx, q, b.cost, m)
		}
		loopT += time.Since(start)
		start = time.Now()
		_ = serial.SolveBatchCtx(ctx, b.queries, b.cost, m, 1)
		groupT += time.Since(start)
		total += len(b.queries)
	}
	r.out.add("core.batch_us_per_query", usOf(batchT)/float64(total), "us")
	r.out.add("core.batch_grouped_speedup", loopT.Seconds()/groupT.Seconds(), "ratio")

	cache := r.st.eng
	if r.w.mode != modeBatch {
		c := *eng
		c.EnableNNCache(batchNNCache)
		for _, b := range batches {
			_ = c.SolveBatchCtx(ctx, b.queries, b.cost, b.method, 0)
		}
		cache = &c
	}
	if h, m := cache.NNCache.Hits(), cache.NNCache.Misses(); h+m > 0 {
		r.out.add("core.nncache_hit_rate", float64(h)/float64(h+m), "ratio")
	}
}

// irtreeLayer times the IR-tree primitives the owner-driven search is
// built on: keyword NN, the relevant-objects disk scan at the N(q) cost
// radius, and a bulk build.
func (r *run) irtreeLayer(eng *core.Engine, qs []querySpec) {
	tree := eng.Tree
	var nn, disk []float64
	for i, q := range qs {
		for _, kw := range q.kw {
			d := r.rec.timed("irtree.nn", int64(i), 0, func() { _, _, _ = tree.NN(q.loc, kw) })
			nn = append(nn, usOf(d))
		}
		ids, ok := tree.NNSet(q.loc, q.kw)
		if !ok {
			continue
		}
		radius := eng.EvalCost(q.cost, q.loc, ids)
		qi := kwds.NewQueryIndex(q.kw)
		hits := 0
		d := r.rec.timed("irtree.relevant_in_disk", int64(i), 0, func() {
			tree.RelevantInDisk(geo.Circle{C: q.loc, R: radius}, qi, func(*dataset.Object, kwds.Mask) bool {
				hits++
				return true
			})
		})
		disk = append(disk, usOf(d))
	}
	r.out.add("irtree.nn_p50_us", median(nn), "us")
	r.out.add("irtree.relevant_in_disk_us", median(disk), "us")
	var builds []float64
	for i := 0; i < r.buildReps(); i++ {
		d := r.rec.timed("irtree.build", int64(i), 0, func() { _ = irtree.Build(eng.DS, 0) })
		builds = append(builds, msOf(d))
	}
	r.out.add("irtree.build_ms", median(builds), "ms")
}

// shardLayer routes the replay queries in-process through a 4-shard
// subtree router (the serving one on gn-routed) whose backends carry
// the span decorator, and checks exact answers against the reference.
func (r *run) shardLayer(ds *dataset.Dataset, qs []querySpec, solveP50 float64) error {
	rt := r.st.router
	if rt == nil {
		var err error
		rt, err = shard.NewLocalRouter(ds, routedShards, shard.Subtree(), 0)
		if err != nil {
			return fmt.Errorf("replay router: %w", err)
		}
		rt.Backends = traceBackends(r.rec, rt.Backends)
	}
	var route, pool, pruned []float64
	for i, q := range qs {
		id, end := r.rec.begin("shard.route", int64(i), 0)
		ctx := withSpan(context.Background(), int64(i), id)
		start := time.Now()
		ans, err := rt.RouteWords(ctx, q.loc, q.words, q.cost, q.method)
		d := time.Since(start)
		end()
		if err != nil {
			return fmt.Errorf("route %d: %w", i, err)
		}
		if q.method == core.OwnerExact && r.w.mode != modeLive && ans.Result.Cost != q.ref {
			return fmt.Errorf("route %d: cost %v, reference %v", i, ans.Result.Cost, q.ref)
		}
		route = append(route, usOf(d))
		pool = append(pool, float64(ans.Info.PoolSize))
		if ans.Info.Shards > 0 {
			pruned = append(pruned, float64(len(ans.Info.KeywordPruned)+len(ans.Info.MBRPruned))/float64(ans.Info.Shards))
		}
	}
	var self []float64
	for _, d := range selfTimes(r.rec.snapshot(), "shard.route") {
		self = append(self, usOf(d))
	}
	r.out.add("shard.route_p50_us", median(route), "us")
	r.out.add("shard.route_p99_us", quantile(route, 0.99), "us")
	r.out.add("shard.route_over_engine", median(route)/solveP50, "ratio")
	r.out.add("shard.route_self_p50_us", median(self), "us")
	r.out.add("shard.pool_size_p50", median(pool), "objects")
	r.out.add("shard.pruned_frac", mean(pruned), "ratio")
	r.rec.setOn(false)
	mallocs, _ := allocDelta(func() {
		for _, q := range qs {
			_, _ = rt.RouteWords(context.Background(), q.loc, q.words, q.cost, q.method)
		}
	})
	r.rec.setOn(true)
	r.out.add("shard.allocs_per_route", float64(mallocs)/float64(len(qs)), "allocs")
	return nil
}

// epochLayer seeds a private epoch store from the engine and applies
// 32-op churn batches one at a time, each until WaitIdle returns; then
// times Pin/Unpin pairs. On hotel-live it also compares pinned reads
// under background churn with the same reads once the store is idle.
func (r *run) epochLayer(eng *core.Engine) error {
	st := epoch.New(eng, epoch.Options{})
	defer st.Close()
	writes := genWrites(eng.DS.Len(), subSeed(r.seed, streamReplay), r.buildReps()+r.churnReplayBatches())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var applies []float64
	for i := 0; i < r.buildReps(); i++ {
		var err error
		d := r.rec.timed("epoch.apply", int64(i), 0, func() {
			if _, err = st.ApplyBatch(epochOps(writes[i].ops)); err == nil {
				err = st.WaitIdle(ctx)
			}
		})
		if err != nil {
			return fmt.Errorf("epoch apply %d: %w", i, err)
		}
		applies = append(applies, msOf(d))
	}
	r.out.add("epoch.apply_p50_ms", median(applies), "ms")

	const pins = 200000
	start := time.Now()
	for i := 0; i < pins; i++ {
		g := st.Pin()
		g.Unpin()
	}
	r.out.add("epoch.pin_ns", float64(time.Since(start).Nanoseconds())/pins, "ns")

	if r.w.mode == modeLive {
		return r.readUnderChurn(ctx, st, writes[r.buildReps():])
	}
	return nil
}

func (r *run) churnReplayBatches() int {
	if r.w.mode == modeLive {
		return int(r.w.writeRate * 2)
	}
	return 0
}

// readUnderChurn solves the replay queries on pinned generations while a
// writer applies batches at the workload's write rate, then again once
// the store is idle, and reports the ratio of the two p50s.
func (r *run) readUnderChurn(ctx context.Context, st *epoch.Store, writes []writeBatch) error {
	n := min(len(r.pool), 128)
	solve := func() []float64 {
		var out []float64
		for _, q := range r.pool[:n] {
			g := st.Pin()
			if kw, ok := resolve(g.Eng.DS, q.words); ok {
				start := time.Now()
				_, _ = g.Eng.SolveCtx(ctx, core.Query{Loc: q.loc, Keywords: kw}, q.cost, q.method)
				out = append(out, usOf(time.Since(start)))
			}
			g.Unpin()
		}
		return out
	}
	done := make(chan error, 1)
	go func() {
		tick := time.NewTicker(time.Duration(float64(time.Second) / r.w.writeRate))
		defer tick.Stop()
		for _, w := range writes {
			<-tick.C
			if _, err := st.ApplyBatch(epochOps(w.ops)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Read until the writer has sent every batch.
	var busy []float64
	for {
		busy = append(busy, solve()...)
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("churn writer: %w", err)
			}
		default:
			continue
		}
		break
	}
	if err := st.WaitIdle(ctx); err != nil {
		return err
	}
	quiet := solve()
	r.out.add("epoch.read_over_quiescent", median(busy)/median(quiet), "ratio")
	return nil
}

func epochOps(ops []datagen.ChurnOp) []epoch.Op {
	out := make([]epoch.Op, len(ops))
	for i, op := range ops {
		out[i] = epoch.Op{Kind: epoch.OpKind(op.Kind), Key: op.Key, HasKey: op.Kind == "insert", Loc: op.Loc, Words: op.Words}
	}
	return out
}

func resolvePool(ds *dataset.Dataset, qs []querySpec) []querySpec {
	var out []querySpec
	for _, q := range qs {
		if kw, ok := resolve(ds, q.words); ok {
			q.kw = kw
			out = append(out, q)
		}
	}
	return out
}

// resolve maps query words onto a dataset's vocabulary.
func resolve(ds *dataset.Dataset, words []string) (kwds.Set, bool) {
	ids := make([]kwds.ID, 0, len(words))
	for _, w := range words {
		id, ok := ds.Vocab.Lookup(w)
		if !ok {
			return nil, false
		}
		ids = append(ids, id)
	}
	return kwds.NewSet(ids...), true
}
