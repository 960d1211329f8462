package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/epoch"
	"coskq/internal/geo"
)

// workloadSpec is one traffic mix. Rates are constants: both commits of
// a comparison must receive the same load.
type workloadSpec struct {
	name      string
	mode      string
	openRate  float64 // primary requests per second in the open-loop phase
	writeRate float64 // POST /objects requests per second beside the reads
}

var workloads = []workloadSpec{
	{name: "hotel-query", mode: modeEngine, openRate: 1000},
	{name: "gn-routed", mode: modeRouted, openRate: 180},
	{name: "hotel-live", mode: modeLive, openRate: 400, writeRate: 4},
	{name: "hotel-batch", mode: modeBatch, openRate: 120},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	conns       = 2 // connections and requests in flight, across all traffic
	setupRounds = 5 // set-ups per untraced run; setup_s is their median
	warmup      = 500 * time.Millisecond
	// openShare is the share of --seconds spent in the open-loop phase;
	// the closed loop gets the rest, since throughput is the noisier
	// figure on a small shared host.
	openShare = 0.4
)

func genDataset(mode string, seed int64) *dataset.Dataset {
	if mode == modeRouted {
		return datagen.Generate(datagen.ProfileGN(subSeed(seed, streamData), gnScale))
	}
	return datagen.Generate(datagen.ProfileHotel(subSeed(seed, streamData)))
}

// tally counts operations by outcome.
type tally struct {
	attempted, shed, server5xx, transport, otherStatus, wrong, missed int
	firstErr                                                          string
}

func (t *tally) failed() int {
	return t.shed + t.server5xx + t.transport + t.otherStatus + t.wrong + t.missed
}

func (t *tally) note(err error) {
	if t.firstErr == "" && err != nil {
		t.firstErr = err.Error()
	}
}

// count classifies one request outcome; it returns true when the
// response was a 200 (its body still needs checking).
func (t *tally) count(r record) bool {
	t.attempted++
	switch {
	case r.err != nil:
		t.transport++
		t.note(r.err)
	case r.status == http.StatusTooManyRequests:
		t.shed++
	case r.status >= 500:
		t.server5xx++
		t.note(fmt.Errorf("status %d: %s", r.status, r.body))
	case r.status != http.StatusOK:
		t.otherStatus++
		t.note(fmt.Errorf("status %d: %s", r.status, r.body))
	default:
		return true
	}
	return false
}

// run is one benchmark run of one workload.
type run struct {
	w       workloadSpec
	seed    int64
	seconds float64
	rec     *recorder // nil on the untraced run
	out     report

	ds      *dataset.Dataset
	ref     *core.Engine // serial reference engine over ds
	st      *stack
	cl      *client
	pool    []querySpec
	batches []batchSpec
	writes  []writeBatch
	vis     *visibility

	reads, writesT tally
	readSeq        int // reads sent so far, across phases
	writeSeq       int // writes sent so far, across phases
}

func newRun(w workloadSpec, seed int64, seconds float64, traced bool) *run {
	r := &run{w: w, seed: seed, seconds: seconds, out: newReport()}
	if traced {
		r.rec = newRecorder()
		r.rec.setOn(false)
	}
	return r
}

// setup generates the dataset and starts the server, setupRounds times
// on the untraced run; setup_s is the median.
func (r *run) setup() error {
	rounds := setupRounds
	if r.rec != nil {
		rounds = 1
	}
	var times []float64
	for i := 0; i < rounds; i++ {
		if r.st != nil {
			r.st.close()
			r.st, r.ds = nil, nil
		}
		start := time.Now()
		ds := genDataset(r.w.mode, r.seed)
		st, err := buildStack(r.w.mode, ds, r.rec)
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		r.st, r.ds = st, ds
	}
	r.out.add("setup_s", median(times), "s")
	r.out.add("heap_mb", heapMiB(), "MiB")
	return nil
}

// prepare builds the inputs and, outside setup_s, the reference answers.
func (r *run) prepare() error {
	r.ref = core.NewEngine(r.ds, 0)
	r.ref.Parallelism = 1
	qseed := subSeed(r.seed, streamQueries)
	switch r.w.mode {
	case modeRouted:
		r.pool = genPool(r.ds, r.ref.Inv, qseed, gnPoolSize, []int{3, 6},
			[]core.CostKind{core.MaxSum, core.Dia}, []core.Method{core.OwnerExact})
	case modeBatch:
		r.batches = genBatches(r.ds, r.ref.Inv, subSeed(r.seed, streamBatches))
		if err := computeBatchRefs(r.ref, r.batches); err != nil {
			return err
		}
		r.pool = batchPool(r.batches)
		return nil
	default:
		r.pool = genPool(r.ds, r.ref.Inv, qseed, hotelPoolSize, []int{3, 6, 9},
			[]core.CostKind{core.MaxSum, core.Dia}, []core.Method{core.OwnerExact, core.OwnerAppro})
	}
	if r.w.mode == modeLive {
		// Reads race the writer, so they are checked for feasibility and
		// self-consistency; the final state is checked against a rebuild.
		n := int(math.Ceil(r.w.writeRate*(r.seconds+warmup.Seconds()))) + 8
		r.writes = genWrites(r.ds.Len(), subSeed(r.seed, streamChurn), n)
		r.vis = newVisibility(r.st.store, r.writes)
		return nil
	}
	return computeRefs(r.ref, r.pool)
}

// batchPool lists the batch items as single queries for the direct
// replays of the batch workload.
func batchPool(batches []batchSpec) []querySpec {
	var out []querySpec
	for _, b := range batches {
		for i, q := range b.queries {
			out = append(out, querySpec{
				loc: q.Loc, kw: q.Keywords, words: b.words[i], cost: b.cost,
				method: b.method, ref: b.ref[i],
			})
		}
	}
	return out
}

// readOne sends the i-th primary request of the workload and checks
// its answer as soon as it arrives, outside the timed interval, so the
// client holds no response bodies across a phase.
func (r *run) readOne(i int, due time.Time) record {
	if r.w.mode == modeBatch {
		b := &r.batches[i%len(r.batches)]
		rec := r.cl.do(http.MethodPost, "/batch", b.body, due)
		if rec.ok() {
			rec.wrong = checkBatchBody(rec.body, b, r.ds)
			rec.body = nil
		}
		return rec
	}
	q := &r.pool[i%len(r.pool)]
	rec := r.cl.do(http.MethodGet, q.path, nil, due)
	if rec.ok() {
		var ds *dataset.Dataset
		if r.w.mode != modeLive {
			ds = r.ds
		}
		rec.wrong = checkQueryBody(rec.body, q, ds)
		rec.body = nil
	}
	return rec
}

func (r *run) writeOne(i int, due time.Time) record {
	r.vis.sent(i)
	rec := r.cl.do(http.MethodPost, "/objects", r.writes[i].body, due)
	r.vis.responded(i, rec)
	if rec.ok() {
		rec.body = nil
	}
	return rec
}

// traffic runs one phase and counts every outcome. It returns the phase
// result and, per read, whether it was answered correctly.
func (r *run) traffic(p phase) (phaseResult, []bool) {
	readBase, writeBase := r.readSeq, r.writeSeq
	p.workers = conns
	if r.vis != nil {
		p.maxWrites = len(r.writes) - writeBase
	} else {
		p.writeRate = 0
	}
	res := p.run(
		func(i int, due time.Time) record { return r.readOne(readBase+i, due) },
		func(i int, due time.Time) record { return r.writeOne(writeBase+i, due) },
	)
	for i := range res.reads {
		res.reads[i].idx += readBase
	}
	for i := range res.writes {
		res.writes[i].idx += writeBase
	}
	r.readSeq += len(res.reads)
	r.writeSeq += len(res.writes)
	good := make([]bool, len(res.reads))
	for i, rec := range res.reads {
		if !r.reads.count(rec) {
			continue
		}
		if rec.wrong != nil {
			r.reads.wrong++
			r.reads.note(rec.wrong)
			continue
		}
		good[i] = true
	}
	r.reads.missed += res.missed
	r.reads.attempted += res.missed
	for _, w := range res.writes {
		if r.writesT.count(w) && !r.vis.accepted(w.idx) {
			r.writesT.wrong++
			r.writesT.note(fmt.Errorf("write batch %d had rejected ops", w.idx))
		}
	}
	return res, good
}

// unit of the primary request's throughput: one query, or 64 for /batch.
func (r *run) perRequest() float64 {
	if r.w.mode == modeBatch {
		return batchSize
	}
	return 1
}

// measure runs warm-up, the open-loop phase and the closed-loop phase.
// Under tracing the closed loop runs once with spans off and once with
// them on, and the ratio is trace.overhead_frac.
func (r *run) measure() {
	openDur := time.Duration(r.seconds * openShare * float64(time.Second))
	closedDur := time.Duration(r.seconds*float64(time.Second)) - openDur
	r.cl = newClient(r.st.base, conns, r.rec)
	defer r.cl.close()
	if r.vis != nil {
		r.vis.start()
	}
	r.traffic(phase{dur: warmup, writeRate: r.w.writeRate})

	r.rec.setOn(true)
	open, _ := r.traffic(phase{dur: openDur, readRate: r.w.openRate, writeRate: r.w.writeRate})
	lat := latenciesMs(open.reads, open.missed)
	name := "query"
	if r.w.mode == modeBatch {
		name = "batch"
	}
	r.out.add(name+"_p50_ms", median(lat), "ms")
	r.out.add(name+"_p90_ms", quantile(lat, 0.90), "ms")
	r.out.add(name+"_p99_ms", quantile(lat, 0.99), "ms")
	r.out.addCount(name+"_latency_samples", len(lat))
	r.out.add("loadgen.lag_p99_ms", quantile(lagsMs(open.reads), 0.99), "ms")
	r.out.add("loadgen.lag_p50_ms", median(lagsMs(open.reads)), "ms")

	closedRun := func(d time.Duration) (float64, rtSample, rtSample) {
		a := readRuntime()
		res, good := r.traffic(phase{dur: d, writeRate: r.w.writeRate})
		b := readRuntime()
		return median(windowRates(res, good, r.perRequest())), a, b
	}
	var qps float64
	if r.rec == nil {
		var a, b rtSample
		qps, a, b = closedRun(closedDur)
		r.out.add("runtime.gc_cpu_frac", gcFrac(a, b), "ratio")
		r.out.add("runtime.alloc_mb_per_s", allocRate(a, b), "MiB/s")
	} else {
		r.rec.setOn(false)
		untraced, a, b := closedRun(closedDur / 2)
		r.out.add("loadgen.closed_qps", untraced, "q/s")
		r.out.add("runtime.gc_cpu_frac", gcFrac(a, b), "ratio")
		r.out.add("runtime.alloc_mb_per_s", allocRate(a, b), "MiB/s")
		r.rec.setOn(true)
		qps, _, _ = closedRun(closedDur / 2)
		r.rec.setOn(false)
		r.out.add("trace.overhead_frac", 1-qps/untraced, "ratio")
	}
	r.out.add(name+"_qps", qps, "q/s")
	if r.vis != nil {
		r.finishLive()
	}
}

// window is the slice of the closed loop over which throughput is
// computed before taking the median across slices, so one disturbed
// slice (a noisy neighbour, a collection) does not set the run's figure.
const window = 500 * time.Millisecond

// windowRates returns the correct answers per second in each full
// window of a closed-loop phase, by completion time.
func windowRates(res phaseResult, good []bool, perRequest float64) []float64 {
	n := int(res.elapsed() / window)
	counts := make([]float64, n)
	for i, rec := range res.reads {
		if w := int(rec.end.Sub(res.t0) / window); good[i] && w < n {
			counts[w]++
		}
	}
	for w := range counts {
		counts[w] *= perRequest / window.Seconds()
	}
	return counts
}

// finishLive stops the writer, waits for the applier to drain, reports
// the write-path metrics and checks the final state against a rebuild.
func (r *run) finishLive() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.st.store.WaitIdle(ctx); err != nil {
		r.writesT.wrong++
		r.writesT.note(fmt.Errorf("wait idle: %w", err))
	}
	v := r.vis.stop()
	r.out.add("write_p99_ms", quantile(v.writeLat, 0.99), "ms")
	r.out.add("visible_p50_ms", median(v.visible), "ms")
	r.out.add("visible_p99_ms", quantile(v.visible, 0.99), "ms")
	r.out.addCount("visible_samples", len(v.visible))
	r.out.add("epoch.backlog_peak", float64(v.backlogPeak), "ops")
	applies := r.st.counter("coskq_epoch_applies_total")
	if d := v.elapsed.Seconds(); d > 0 {
		r.out.add("epoch.gens_per_s", float64(applies)/d, "1/s")
	}
	if applies > 0 {
		r.out.add("epoch.ops_per_gen", float64(r.st.counter("coskq_epoch_mutations_total"))/float64(applies), "ops")
	}
	if r.writesT.attempted > 0 {
		r.out.add("epoch.shed_frac", float64(r.writesT.shed)/float64(r.writesT.attempted), "ratio")
	}
	if err := r.verifyLive(v.acceptedOps); err != nil {
		r.reads.wrong++
		r.reads.note(err)
	}
}

// verifyLive rebuilds the final object table from the seed dataset and
// every accepted op, then checks a sample of exact queries served by the
// live store against a from-scratch engine over that rebuild.
func (r *run) verifyLive(ops []datagen.ChurnOp) error {
	type entry struct {
		key   uint64
		x, y  float64
		words []string
		dead  bool
	}
	var table []entry
	slot := map[uint64]int{}
	for i := range r.ds.Objects {
		o := &r.ds.Objects[i]
		slot[uint64(i)] = len(table)
		table = append(table, entry{key: uint64(i), x: o.Loc.X, y: o.Loc.Y, words: wordsOf(r.ds, o.Keywords)})
	}
	for _, op := range ops {
		switch op.Kind {
		case "insert":
			slot[op.Key] = len(table)
			table = append(table, entry{key: op.Key, x: op.Loc.X, y: op.Loc.Y, words: op.Words})
		case "delete":
			table[slot[op.Key]].dead = true
		case "edit":
			table[slot[op.Key]].words = op.Words
		}
	}
	b := dataset.NewBuilder(r.ds.Name)
	for _, e := range table {
		if !e.dead {
			b.Add(geo.Point{X: e.x, Y: e.y}, e.words...)
		}
	}
	fresh := core.NewEngine(b.Build(), 0)
	fresh.Parallelism = 1
	checked := 0
	for i := 0; i < len(r.pool) && checked < 64; i += 29 {
		q := r.pool[i]
		if q.method != core.OwnerExact {
			continue
		}
		kw, ok := resolve(fresh.DS, q.words)
		if !ok {
			continue
		}
		want, err := fresh.Solve(core.Query{Loc: q.loc, Keywords: kw}, q.cost, core.OwnerExact)
		if err != nil {
			continue
		}
		q.ref = want.Cost
		rec := r.cl.do(http.MethodGet, q.path, nil, time.Now())
		if !rec.ok() {
			return fmt.Errorf("final-state query %d: status %d %v", i, rec.status, rec.err)
		}
		if err := checkQueryBody(rec.body, &q, fresh.DS); err != nil {
			return fmt.Errorf("final-state query %d: %w", i, err)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("final-state check compared no queries")
	}
	r.out.addCount("live.final_state_checked", checked)
	return nil
}

// visibility measures write-to-visible staleness from outside the
// store: a watcher pins each newly published generation and looks up
// the keys the written batches inserted in its key table.
type visibility struct {
	store  *epoch.Store
	writes []writeBatch

	mu       sync.Mutex
	sentN    int
	respAt   map[int]time.Time
	seenAt   map[int]time.Time
	ok       map[int]bool
	writeLat []float64
	resolved int // batches [0, resolved) are known visible
	peak     int
	t0       time.Time
	done     chan struct{}
	stopped  chan struct{}
}

type visResult struct {
	writeLat, visible []float64
	backlogPeak       int
	elapsed           time.Duration
	acceptedOps       []datagen.ChurnOp
}

func newVisibility(st *epoch.Store, writes []writeBatch) *visibility {
	return &visibility{
		store: st, writes: writes,
		respAt: map[int]time.Time{}, seenAt: map[int]time.Time{}, ok: map[int]bool{},
		done: make(chan struct{}), stopped: make(chan struct{}),
	}
}

func (v *visibility) sent(i int) {
	v.mu.Lock()
	v.sentN = max(v.sentN, i+1)
	v.mu.Unlock()
}

type objectsResponseJSON struct {
	Results []struct {
		Key   uint64 `json:"key"`
		Error string `json:"error"`
	} `json:"results"`
}

func (v *visibility) responded(i int, rec record) {
	ok := rec.ok()
	if ok {
		var resp objectsResponseJSON
		if err := json.Unmarshal(rec.body, &resp); err != nil || len(resp.Results) != len(v.writes[i].ops) {
			ok = false
		} else {
			for _, it := range resp.Results {
				ok = ok && it.Error == ""
			}
		}
	}
	v.mu.Lock()
	v.respAt[i] = rec.end
	v.ok[i] = ok
	v.writeLat = append(v.writeLat, msOf(rec.latency()))
	v.mu.Unlock()
}

func (v *visibility) accepted(i int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ok[i]
}

func (v *visibility) start() {
	v.t0 = time.Now()
	go v.watch()
}

// watch polls the published generation every millisecond.
func (v *visibility) watch() {
	defer close(v.stopped)
	last := v.store.Current()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-v.done:
			v.scan()
			return
		case <-tick.C:
		}
		v.mu.Lock()
		v.peak = max(v.peak, v.store.Backlog())
		v.mu.Unlock()
		if cur := v.store.Current(); cur != last {
			last = cur
			v.scan()
		}
	}
}

// scan pins the current generation and marks every batch up to the
// newest one whose probe key it holds as visible (deltas apply in
// order, so a later visible batch implies every earlier one).
func (v *visibility) scan() {
	g := v.store.Pin()
	defer g.Unpin()
	now := time.Now()
	keys := g.Keys
	sorted := sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	has := func(k uint64) bool {
		if sorted {
			i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
			return i < len(keys) && keys[i] == k
		}
		for _, x := range keys {
			if x == k {
				return true
			}
		}
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for b := v.sentN - 1; b >= v.resolved; b-- {
		if w := v.writes[b]; w.hasProbe && has(w.probe) {
			for i := v.resolved; i <= b; i++ {
				v.seenAt[i] = now
			}
			v.resolved = b + 1
			return
		}
	}
}

func (v *visibility) stop() visResult {
	close(v.done)
	<-v.stopped
	v.mu.Lock()
	defer v.mu.Unlock()
	res := visResult{writeLat: v.writeLat, backlogPeak: v.peak, elapsed: time.Since(v.t0)}
	idx := make([]int, 0, len(v.respAt))
	for i := range v.respAt {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		if !v.ok[i] {
			continue
		}
		res.acceptedOps = append(res.acceptedOps, v.writes[i].ops...)
		if seen, ok := v.seenAt[i]; ok {
			res.visible = append(res.visible, msOf(max(0, seen.Sub(v.respAt[i]))))
		}
	}
	return res
}

// report collects the named metrics of one run, in insertion order.
type report struct {
	names  []string
	values map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() report { return report{values: map[string]metricValue{}} }

func (rp *report) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if _, ok := rp.values[name]; !ok {
		rp.names = append(rp.names, name)
	}
	rp.values[name] = metricValue{v, unit}
}

func (rp *report) addCount(name string, n int) { rp.add(name, float64(n), "count") }
