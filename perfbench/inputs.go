package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/kwds"
)

// Input sizes. They are fixed, so every commit of a comparison serves
// the same work.
const (
	hotelPoolSize = 2048 // distinct /query requests on the Hotel workloads
	gnPoolSize    = 4096 // distinct /query requests on gn-routed
	gnScale       = 0.05 // GN profile scale: ~93k objects
	batchCount    = 48   // distinct /batch requests on hotel-batch
	batchSize     = 64   // queries per /batch request
	batchHots     = 4    // hot locations per skewed batch
	writeOps      = 32   // ops per POST /objects request
	hotelVocab    = 602  // Hotel's vocabulary size (churn keywords)
	genBandHi     = 40   // the paper's query keyword band [0, 40) percent
)

// subSeed derives an independent stream seed from the workload seed,
// so the dataset, queries, batches and churn never share a generator.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z & math.MaxInt64)
}

const (
	streamData = iota + 1
	streamQueries
	streamBatches
	streamChurn
	streamReplay
)

// querySpec is one /query request of a workload's pool.
type querySpec struct {
	loc    geo.Point
	kw     kwds.Set // ids in the workload dataset's vocabulary
	words  []string
	cost   core.CostKind
	method core.Method
	path   string  // GET path with its query string
	ref    float64 // exact reference cost; NaN when unchecked
}

func (q querySpec) query() core.Query { return core.Query{Loc: q.loc, Keywords: q.kw} }

// batchSpec is one POST /batch request.
type batchSpec struct {
	cost    core.CostKind
	method  core.Method
	queries []core.Query
	words   [][]string
	body    []byte
	ref     []float64
}

// writeBatch is one POST /objects request of the churn stream.
type writeBatch struct {
	ops      []datagen.ChurnOp
	body     []byte
	probe    uint64 // a key this batch inserts that no later op deletes
	hasProbe bool
}

func costName(c core.CostKind) string { return strings.ToLower(c.String()) }

func methodName(m core.Method) string {
	if m == core.OwnerAppro {
		return "appro"
	}
	return "exact"
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func wordsOf(ds *dataset.Dataset, s kwds.Set) []string {
	out := make([]string, len(s))
	for i, id := range s {
		out[i] = ds.Vocab.Word(id)
	}
	return out
}

// genPool draws n /query requests with the paper's generator (location
// uniform in the MBR, keywords from the [0, 40) frequency band), cycling
// through every (size, cost, method) combination.
func genPool(ds *dataset.Dataset, inv *invindex.Index, seed int64, n int, sizes []int, costs []core.CostKind, methods []core.Method) []querySpec {
	g := datagen.NewQueryGen(ds, inv, 0, genBandHi, seed)
	pool := make([]querySpec, n)
	for i := range pool {
		size := sizes[i%len(sizes)]
		cost := costs[(i/len(sizes))%len(costs)]
		method := methods[(i/(len(sizes)*len(costs)))%len(methods)]
		loc, kw := g.Next(size)
		words := wordsOf(ds, kw)
		v := url.Values{}
		v.Set("x", fmtFloat(loc.X))
		v.Set("y", fmtFloat(loc.Y))
		v.Set("kw", strings.Join(words, ","))
		v.Set("cost", costName(cost))
		v.Set("method", methodName(method))
		pool[i] = querySpec{
			loc: loc, kw: kw, words: words, cost: cost, method: method,
			path: "/query?" + v.Encode(), ref: math.NaN(),
		}
	}
	return pool
}

type batchQueryJSON struct {
	X  float64  `json:"x"`
	Y  float64  `json:"y"`
	Kw []string `json:"kw"`
}

type batchRequestJSON struct {
	Cost    string           `json:"cost"`
	Method  string           `json:"method"`
	Queries []batchQueryJSON `json:"queries"`
}

// genBatches draws skewed /batch requests in the shape of production
// batch traffic: in each batch most queries sit at a few zipf-popular
// hot locations (with a little jitter) carrying hot keyword
// combinations, some add one keyword to the hot set (near duplicates),
// and every fifth query is unrelated. Each batch has its own hot spots,
// so the workload's cost averages over many of them.
func genBatches(ds *dataset.Dataset, inv *invindex.Index, seed int64) []batchSpec {
	rng := rand.New(rand.NewSource(seed))
	g := datagen.NewQueryGen(ds, inv, 0, genBandHi, seed+1)
	mbr := ds.MBR()
	jitter := 0.002 * math.Max(mbr.MaxX-mbr.MinX, mbr.MaxY-mbr.MinY)
	type hot struct {
		loc geo.Point
		kw  kwds.Set
	}
	out := make([]batchSpec, batchCount)
	for b := range out {
		hots := make([]hot, batchHots)
		for i := range hots {
			loc, kw := g.Next(2 + rng.Intn(2))
			hots[i] = hot{loc, kw}
		}
		zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(hots)-1))
		cost := []core.CostKind{core.MaxSum, core.Dia}[b%2]
		bs := batchSpec{cost: cost, method: core.OwnerExact}
		req := batchRequestJSON{Cost: costName(cost), Method: methodName(bs.method)}
		for i := 0; i < batchSize; i++ {
			var q core.Query
			if i%5 == 4 { // unrelated tail
				loc, kw := g.Next(1 + rng.Intn(3))
				q = core.Query{Loc: loc, Keywords: kw}
			} else {
				h := hots[zipf.Uint64()]
				kw := h.kw
				if i%7 == 3 { // near-duplicate keyword set
					_, extra := g.Next(1)
					kw = kw.Union(extra)
				}
				q = core.Query{
					Loc:      geo.Point{X: h.loc.X + rng.Float64()*jitter, Y: h.loc.Y + rng.Float64()*jitter},
					Keywords: kw,
				}
			}
			words := wordsOf(ds, q.Keywords)
			bs.queries = append(bs.queries, q)
			bs.words = append(bs.words, words)
			req.Queries = append(req.Queries, batchQueryJSON{X: q.Loc.X, Y: q.Loc.Y, Kw: words})
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		bs.body = body
		out[b] = bs
	}
	return out
}

type objectOpJSON struct {
	Op  string   `json:"op"`
	Key *uint64  `json:"key,omitempty"`
	X   float64  `json:"x"`
	Y   float64  `json:"y"`
	Kw  []string `json:"kw,omitempty"`
}

type objectsRequestJSON struct {
	Ops []objectOpJSON `json:"ops"`
}

// genWrites draws n POST /objects batches from the seeded churn stream
// over Hotel's vocabulary with the default insert/delete/edit mix. Every
// op carries its key, so the accepted ops alone rebuild the final state.
func genWrites(seedKeys int, seed int64, n int) []writeBatch {
	cs := datagen.NewChurnStream(datagen.ChurnConfig{
		Seed: seed, Ops: n * writeOps, SeedKeys: seedKeys, Vocab: hotelVocab,
	})
	ops := cs.All()
	live := map[uint64]bool{}
	for _, k := range cs.Live() {
		live[k] = true
	}
	var out []writeBatch
	for len(ops) > 0 {
		k := min(writeOps, len(ops))
		wb := writeBatch{ops: ops[:k]}
		ops = ops[k:]
		var req objectsRequestJSON
		for _, op := range wb.ops {
			key := op.Key
			j := objectOpJSON{Op: op.Kind, Key: &key, X: op.Loc.X, Y: op.Loc.Y, Kw: op.Words}
			req.Ops = append(req.Ops, j)
			if op.Kind == "insert" && live[op.Key] && !wb.hasProbe {
				wb.probe, wb.hasProbe = op.Key, true
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		wb.body = body
		out = append(out, wb)
	}
	return out
}

// computeRefs fills each request's exact reference cost with a serial
// reference engine, solving on conns goroutines (the engine is safe for
// concurrent queries).
func computeRefs(ref *core.Engine, pool []querySpec) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += conns {
				res, err := ref.Solve(pool[i].query(), pool[i].cost, core.OwnerExact)
				if err != nil {
					errs[w] = fmt.Errorf("reference solve %d: %w", i, err)
					return
				}
				pool[i].ref = res.Cost
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func computeBatchRefs(ref *core.Engine, batches []batchSpec) error {
	for b := range batches {
		bs := &batches[b]
		bs.ref = make([]float64, len(bs.queries))
		for i, q := range bs.queries {
			res, err := ref.Solve(q, bs.cost, core.OwnerExact)
			if err != nil {
				return fmt.Errorf("reference solve batch %d item %d: %w", b, i, err)
			}
			bs.ref[i] = res.Cost
		}
	}
	return nil
}
