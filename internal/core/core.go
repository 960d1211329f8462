// Package core implements the paper's contribution: collective spatial
// keyword query (CoSKQ) processing with the distance owner-driven approach
// of Long, Wong, Wang and Fu (SIGMOD 2013).
//
// Given a query q = (q.λ, q.ψ) over a dataset of geo-textual objects, a
// CoSKQ returns a feasible set S (one covering q.ψ) minimizing a cost
// function. The package provides, for both of the paper's cost functions
// (MaxSum and Dia):
//
//   - the distance owner-driven exact algorithms (MaxSum-Exact, Dia-Exact),
//   - the distance owner-driven approximation algorithms (MaxSum-Appro with
//     ratio 1.375, Dia-Appro with ratio √3),
//   - the Cao et al. (SIGMOD 2011) baselines: Cao-Exact (branch and
//     bound), Cao-Appro1 (the nearest neighbor set, ratio 3) and
//     Cao-Appro2 (iterative owner improvement, ratio 2), plus their Dia
//     adaptations,
//   - a brute-force oracle for testing,
//
// and, as extensions, the Sum cost of Cao et al. with a greedy weighted
// set cover approximation and an exact search.
//
// Following the CoSKQ literature, answer sets consist of relevant objects
// only — objects sharing at least one keyword with the query. (For the
// MinMax extension cost this matters: a nearby object contributing no new
// keyword can still lower the cost, and such "anchor" members are
// considered as long as they are relevant.)
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// Query is a collective spatial keyword query: a location and the keyword
// set to cover.
type Query struct {
	Loc      geo.Point
	Keywords kwds.Set
}

// CostKind selects the cost function cost(S) minimized by a CoSKQ.
type CostKind int

const (
	// MaxSum is the paper's primary cost:
	// max_{o∈S} d(o,q) + max_{o1,o2∈S} d(o1,o2)
	// (Cao et al.'s cost_MaxMax with α = 0.5, rescaled by 2).
	MaxSum CostKind = iota
	// Dia is the paper's new cost (a.k.a. cost_MaxMax2): the larger of the
	// two MaxSum components — the diameter of S ∪ {q} under the two owner
	// distances.
	Dia
	// Sum is Cao et al.'s cost_Sum: Σ_{o∈S} d(o,q). Extension scope.
	Sum
	// MinMax is Cao et al.'s cost_MinMax with α = 0.5, rescaled:
	// min_{o∈S} d(o,q) + max_{o1,o2∈S} d(o1,o2). Extension scope.
	MinMax
	// SumMax is Cao et al.'s cost_SumMax with α = 0.5, rescaled:
	// Σ_{o∈S} d(o,q) + max_{o1,o2∈S} d(o1,o2). Cao et al. left its
	// algorithms as future work; solved here with the owner-driven
	// skeleton. Extension scope.
	SumMax
)

// String implements fmt.Stringer.
func (c CostKind) String() string {
	switch c {
	case MaxSum:
		return "MaxSum"
	case Dia:
		return "Dia"
	case Sum:
		return "Sum"
	case MinMax:
		return "MinMax"
	case SumMax:
		return "SumMax"
	default:
		return fmt.Sprintf("CostKind(%d)", int(c))
	}
}

// Method selects the algorithm used to answer a query.
type Method int

const (
	// OwnerExact is the paper's distance owner-driven exact algorithm
	// (MaxSum-Exact / Dia-Exact depending on the cost).
	OwnerExact Method = iota
	// OwnerAppro is the paper's distance owner-driven approximation
	// (MaxSum-Appro, ratio 1.375 / Dia-Appro, ratio √3).
	OwnerAppro
	// CaoExact is the Cao et al. branch-and-bound exact baseline
	// (adapted to Dia when combined with that cost).
	CaoExact
	// CaoAppro1 returns the nearest neighbor set N(q) (ratio 3 for MaxSum).
	CaoAppro1
	// CaoAppro2 is Cao et al.'s iterative improvement (ratio 2 for MaxSum).
	CaoAppro2
	// Brute is the exhaustive oracle; exponential, for tests and tiny
	// inputs only.
	Brute
	// GreedySum is the weighted-set-cover greedy approximation for the Sum
	// cost (ratio H_{|q.ψ|}). Extension scope.
	GreedySum
	// PairsExact is the published pseudocode form of the owner-driven
	// exact search (pairwise distance owners enumerated first). Kept as an
	// independently-derived exact implementation; OwnerExact is usually
	// faster.
	PairsExact
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case OwnerExact:
		return "OwnerExact"
	case OwnerAppro:
		return "OwnerAppro"
	case CaoExact:
		return "Cao-Exact"
	case CaoAppro1:
		return "Cao-Appro1"
	case CaoAppro2:
		return "Cao-Appro2"
	case Brute:
		return "Brute"
	case GreedySum:
		return "GreedySum"
	case PairsExact:
		return "PairsExact"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ErrInfeasible is returned when some query keyword appears in no object,
// so no feasible set exists.
var ErrInfeasible = errors.New("coskq: query keywords cannot be covered by the dataset")

// ErrUnsupported is returned for a (CostKind, Method) combination that has
// no algorithm.
var ErrUnsupported = errors.New("coskq: unsupported cost/method combination")

// ErrBudgetExceeded is returned when an exact search expands more nodes
// than the engine's NodeBudget allows. The paper's evaluation reports the
// analogous condition for the Cao-Exact baseline as "did not finish"
// (e.g. runs exceeding 10 hours); the budget makes that observable without
// wall-clock dependence.
var ErrBudgetExceeded = errors.New("coskq: search node budget exceeded")

// budgetExceeded is the internal panic payload that unwinds a DFS when the
// node budget runs out; Solve's entry points recover it into
// ErrBudgetExceeded.
type budgetExceeded struct{}

// searchCanceled is the internal panic payload that unwinds a search when
// the per-call context (SolveCtx, SolveBatchCtx, TopKCtx) is cancelled;
// the entry points recover it into the context's error.
type searchCanceled struct{ err error }

// cancelPollMask downsamples cancellation checks in the hot loops: the
// context is consulted once every cancelPollMask+1 counted events, which
// bounds cancellation latency to a few hundred node expansions while
// keeping the per-node overhead to one nil check.
const cancelPollMask = 255

// chargeNode counts one expanded search node against the budget and,
// on a cancellable call, periodically polls the context.
func (e *Engine) chargeNode(stats *Stats) {
	stats.NodesExpanded++
	if e.NodeBudget > 0 && stats.NodesExpanded > e.NodeBudget {
		panic(budgetExceeded{})
	}
	if e.ctx != nil && stats.NodesExpanded&cancelPollMask == 0 {
		if err := e.ctx.Err(); err != nil {
			panic(searchCanceled{err})
		}
	}
}

// pollCancel checks the per-call context every cancelPollMask+1 calls,
// unwinding the search when it is done. counter is any monotonically
// increasing per-execution count (e.g. Stats.CandidatesSeen); it
// downsamples the check in loops that do not expand search nodes.
func (e *Engine) pollCancel(counter int) {
	if e.ctx == nil || counter&cancelPollMask != 0 {
		return
	}
	if err := e.ctx.Err(); err != nil {
		panic(searchCanceled{err})
	}
}

// recoverBudget converts a budgetExceeded panic into ErrBudgetExceeded and
// a searchCanceled panic into its context error, re-panicking on anything
// else. Injected fault unwinds (internal/fault) translate the same way, so
// an armed fault surfaces exactly like the real condition it simulates;
// injected crashes (fault.Crash) deliberately re-panic. Use as:
//
//	defer recoverBudget(&err)
func recoverBudget(err *error) {
	if r := recover(); r != nil {
		switch p := r.(type) {
		case budgetExceeded:
			*err = ErrBudgetExceeded
		case searchCanceled:
			*err = p.err
		case fault.Unwind:
			if p.Kind == fault.KindBudget {
				*err = ErrBudgetExceeded
			} else {
				*err = context.Canceled
			}
		default:
			panic(r)
		}
	}
}

// Stats records search-effort counters for one query execution.
type Stats struct {
	Elapsed        time.Duration
	OwnersTried    int // candidate distance owners processed
	SetsEvaluated  int // feasible sets whose cost was computed
	NodesExpanded  int // search-tree nodes expanded (exact searches)
	CandidatesSeen int // relevant objects materialized

	// DegradeReason names why a degraded execution was cut short
	// ("budget", "deadline", "cancelled"); empty for complete answers.
	DegradeReason DegradeReason

	// Phases breaks Elapsed down across the coarse phases the algorithms
	// share; a phase an algorithm does not have stays zero. Phases.Seed
	// includes nested seed solves (e.g. Cao-Exact's Appro2 seeding).
	Phases PhaseBreakdown
	// Prunes counts, per pruning rule, how often the search discarded
	// work. Counting is a plain array increment, so it is always on; the
	// per-query trace (internal/trace) exports the same counters in its
	// EXPLAIN output.
	Prunes trace.PruneCounts
}

// merge folds another execution's counters into s: a degraded answer
// that fell back to an approximation reports the aborted search's effort
// plus the fallback's.
func (s *Stats) merge(o *Stats) {
	s.OwnersTried += o.OwnersTried
	s.SetsEvaluated += o.SetsEvaluated
	s.NodesExpanded += o.NodesExpanded
	s.CandidatesSeen += o.CandidatesSeen
	s.Prunes.Merge(o.Prunes)
}

// PhaseBreakdown splits one execution's elapsed time across the coarse
// algorithm phases.
type PhaseBreakdown struct {
	// Seed is the nearest-neighbor seeding phase (N(q) construction, or
	// an approximation run seeding an exact search).
	Seed time.Duration
	// Materialize is standalone candidate materialization (index disk
	// queries building candidate lists). Algorithms that interleave
	// materialization with the owner loop charge it to Search.
	Materialize time.Duration
	// Search is the owner loop / cover enumeration.
	Search time.Duration
}

// Result is the answer to one CoSKQ execution.
type Result struct {
	Set   []dataset.ObjectID // the feasible set, ascending object id
	Cost  float64
	Cost2 CostKind // the cost function the value refers to
	// Degraded marks an anytime answer: the search was cut short (node
	// budget, deadline, cancellation) and Set is the best feasible
	// incumbent — or an approximation fallback — rather than the
	// method's full answer. Stats.DegradeReason names the cause. Only
	// produced when Engine.Degrade permits it; cost is an upper bound on
	// the method's full answer for the same query.
	Degraded bool
	Stats    Stats
}

// Engine owns the dataset and the indexes the algorithms run against.
// Build one Engine per dataset and reuse it across queries; an Engine is
// safe for concurrent queries once built.
type Engine struct {
	DS   *dataset.Dataset
	Tree *irtree.Tree
	Inv  *invindex.Index

	// NodeBudget caps the number of search nodes an exact algorithm may
	// expand per query; exceeding it returns ErrBudgetExceeded. Zero means
	// unlimited. Set it before issuing queries (it is not synchronized).
	NodeBudget int

	// Deprecated: Parallelism is ignored. Every search runs serially on
	// the calling goroutine (DESIGN.md §10); concurrency comes from
	// concurrent queries and SolveBatch workers. The field will be
	// removed once the benchmark under perfbench/ stops setting it.
	Parallelism int

	// Ablation disables individual pruning rules of the owner-driven
	// search for the ablation benchmarks. All-false (the zero value) is
	// the full algorithm; disabling rules never changes answers, only
	// search effort.
	Ablation Ablation

	// Degrade selects what Solve does when an exact search trips the
	// node budget, a deadline, or a cancellation: fail with the typed
	// error (DegradeFail, the default — the all-or-nothing contract),
	// return the best feasible incumbent as an anytime answer
	// (DegradeIncumbent), or additionally fall back to the cost's cheap
	// approximation when no incumbent exists yet (DegradeFallbackAppro).
	// See degrade.go and DESIGN.md §11. Set it before issuing queries
	// (it is not synchronized).
	Degrade DegradePolicy

	// Metrics, when non-nil, receives one record per Solve/SolveCtx
	// execution (including every item of a batch): cumulative query and
	// error counters plus latency and search-effort histograms. Recording
	// is atomic, so a shared sink is safe under concurrent queries. Set it
	// before issuing queries (the field itself is not synchronized).
	Metrics *EngineMetrics

	// NNCache, when non-nil, is the engine-level cross-query keyword-NN
	// cache (nncache.go): a bounded, sharded LRU keyed by (grid cell,
	// keyword) whose entries carry a distance-validity radius, so every
	// reuse is provably bit-identical to the IR-tree walk it replaces.
	// Attach via EnableNNCache before issuing queries (the field itself
	// is not synchronized); the cache is safe for concurrent queries.
	NNCache *NNCache

	// ctx is the per-call cancellation context. It is only ever set on the
	// private per-call copy of the engine made by withCtx — never on a
	// shared Engine — so concurrent queries cannot observe each other's
	// contexts.
	ctx context.Context

	// tr is the per-call execution trace (carried in the context via
	// internal/trace). Like ctx it only ever lives on a per-call engine
	// copy. All trace calls are nil-safe, so a nil tr — the common case —
	// costs one branch and never allocates.
	tr *trace.Trace

	// nnmemo caches the query's per-keyword NN seeds so bound seeding and
	// d_f refinement stop re-walking the IR-tree for keywords already
	// answered (Cao-Exact seeds via Appro2, which otherwise walks every
	// keyword NN twice). Per-call state like ctx.
	nnmemo *nnMemo

	// any is the per-call anytime holder: the feasible incumbent and
	// live Stats the degrade path falls back on when a search is cut
	// short (degrade.go). Per-call state like ctx and nnmemo.
	any *anytime

	// clusterNN is the cluster-local keyword-NN share of a grouped batch
	// execution (batchgroup.go): validity-radius observations seeded by
	// the cluster scan and reused across the cluster's members. Per-call
	// state like nnmemo.
	clusterNN *nnShare

	// warmBound is a grouped batch's warm-start upper bound: the cost of
	// a finished neighbor's answer set, feasible for this query too. The
	// exact searches use it only to pre-tighten their pruning bound (one
	// ulp above, exact.go), never as an answer candidate, so warm and
	// cold runs return identical results. Zero means no warm start.
	warmBound float64

	// ownerSrc, when non-nil, replaces the IR-tree relevant-NN iterator
	// of the owner-driven exact search with a pre-materialized candidate
	// source (the cluster's shared range scan, batchgroup.go). Per-call
	// state; consumed by exactly one execution.
	ownerSrc ownerSource
}

// ownerSource abstracts the candidate-owner stream of the owner-driven
// exact search: ascending-distance relevant objects with monotone limit
// tightening. Implemented by irtree.RelevantNNIterator (the default) and
// by the grouped batch's shared-scan poolIter (batchgroup.go).
type ownerSource interface {
	Next() (*dataset.Object, float64, bool)
	Limit(d float64)
}

// ownerIter returns the candidate-owner stream for one execution: the
// per-call pre-materialized source when a grouped batch attached one,
// else a fresh IR-tree iterator.
func (e *Engine) ownerIter(q Query, qi *kwds.QueryIndex) ownerSource {
	if e.ownerSrc != nil {
		return e.ownerSrc
	}
	return e.Tree.NewRelevantNNIterator(q.Loc, qi)
}

// Ablation toggles the owner-driven search's pruning rules off, one by
// one, to measure what each contributes (DESIGN.md experiment A1).
type Ablation struct {
	// NoOwnerRing drops the d(o,q) ≥ d_f owner filter: every relevant
	// object is tried as a query distance owner.
	NoOwnerRing bool
	// NoIncumbentBreak drops the d(o,q) ≥ curCost early termination of
	// the owner enumeration (owners are still skipped one by one).
	NoIncumbentBreak bool
	// NoPairPrune drops the combine(d(o,q), maxPair) ≥ best partial-set
	// bound inside the cover enumeration.
	NoPairPrune bool
	// NoSumDominance drops the dominated-candidate filter of the Sum-cost
	// exact search (an object is dominated when a distinct object is at
	// most as far and covers at least its query keywords).
	NoSumDominance bool
}

// NewEngine indexes ds with the given IR-tree fanout (0 for default).
func NewEngine(ds *dataset.Dataset, fanout int) *Engine {
	return &Engine{
		DS:   ds,
		Tree: irtree.Build(ds, fanout),
		Inv:  invindex.Build(ds),
	}
}

// NewEngineLike builds a fresh engine over ds with the same serving
// knobs (budget, ablation, degrade policy, metrics sink)
// as proto. The epoch layer uses it to rebuild generations: every
// generation of a live store must answer queries under the policies the
// operator configured once on the seed engine. The NN cache is NOT
// carried over — its entries hold distance-validity radii proved
// against the old dataset, so each generation starts with a fresh one
// of the same capacity.
func NewEngineLike(proto *Engine, ds *dataset.Dataset, fanout int) *Engine {
	e := NewEngine(ds, fanout)
	if proto == nil {
		return e
	}
	e.NodeBudget = proto.NodeBudget
	e.Ablation = proto.Ablation
	e.Degrade = proto.Degrade
	e.Metrics = proto.Metrics
	if proto.NNCache != nil {
		e.EnableNNCache(proto.NNCache.Capacity())
	}
	return e
}

// Solve answers q with the chosen cost function and algorithm.
func (e *Engine) Solve(q Query, cost CostKind, method Method) (Result, error) {
	return e.SolveCtx(context.Background(), q, cost, method)
}

// SolveCtx is Solve with cancellation: when ctx is cancelled or its
// deadline passes, the search — including a long-running exact search
// deep inside its DFS — unwinds promptly (within a few hundred node
// expansions, the same mechanism that enforces NodeBudget) and the
// context's error is returned. A nil or never-cancellable ctx adds no
// per-node overhead.
func (e *Engine) SolveCtx(ctx context.Context, q Query, cost CostKind, method Method) (Result, error) {
	start := time.Now()
	res, err := e.solveCtx(ctx, q, cost, method)
	// Every algorithm stamps its own Elapsed, but error unwinds (budget,
	// cancellation) and future algorithms may not; stamp the wall time of
	// the whole call here so the field is populated uniformly.
	res.Stats.Elapsed = time.Since(start)
	if e.Metrics != nil {
		e.Metrics.recordSolve(cost, method, res, err, res.Stats.Elapsed)
	}
	if tr := trace.FromContext(ctx); tr != nil {
		tr.AddPrunes(res.Stats.Prunes)
	}
	return res, err
}

func (e *Engine) solveCtx(ctx context.Context, q Query, cost CostKind, method Method) (Result, error) {
	run, err := e.withCtx(ctx)
	if err != nil {
		return Result{}, err
	}
	defer putNNMemo(run.nnmemo)
	defer putAnytime(run.any)
	return run.solve(q, cost, method)
}

// withCtx returns the per-call engine a query runs on: a shallow copy of
// e carrying the cancellation context, the trace and the pooled
// keyword-NN memo (the copy shares the dataset and indexes; it exists so
// that a shared Engine never holds per-request state). ctx is only
// attached when it can actually be cancelled, keeping chargeNode's poll
// a single nil check on background contexts.
func (e *Engine) withCtx(ctx context.Context) (*Engine, error) {
	clone := *e
	if ctx != nil {
		if ctx.Done() != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			clone.ctx = ctx
		}
		clone.tr = trace.FromContext(ctx)
	}
	clone.nnmemo = getNNMemo()
	clone.any = getAnytime()
	return &clone, nil
}

// solve runs the dispatch and, when the search was cut short, applies
// the engine's degrade policy: recover the aborted execution's Stats
// and — policy permitting — turn the error into an anytime answer
// (degrade.go).
func (e *Engine) solve(q Query, cost CostKind, method Method) (Result, error) {
	res, err := e.solveInner(q, cost, method)
	if err == nil {
		return res, nil
	}
	return e.degradeSolve(q, cost, method, res, err)
}

// solveInner dispatches to the per-(cost, method) algorithm. The deferred
// recover catches cancellation unwinds from algorithms that have no
// recover of their own (the approximation constructions).
func (e *Engine) solveInner(q Query, cost CostKind, method Method) (res Result, err error) {
	defer recoverBudget(&err)
	switch cost {
	case MaxSum, Dia:
		switch method {
		case OwnerExact:
			return e.ownerExact(q, cost)
		case PairsExact:
			return e.pairsExact(q, cost)
		case OwnerAppro:
			return e.ownerAppro(q, cost)
		case CaoExact:
			return e.caoExact(q, cost)
		case CaoAppro1:
			return e.caoAppro1(q, cost)
		case CaoAppro2:
			return e.caoAppro2(q, cost)
		case Brute:
			return e.bruteForce(q, cost)
		}
	case Sum:
		switch method {
		case GreedySum, OwnerAppro:
			return e.greedySum(q)
		case OwnerExact, CaoExact:
			return e.sumExact(q)
		case Brute:
			return e.bruteForce(q, cost)
		}
	case MinMax:
		switch method {
		case OwnerExact:
			return e.minMaxExact(q)
		case OwnerAppro:
			return e.minMaxAppro(q)
		case Brute:
			return e.bruteForce(q, cost)
		}
	case SumMax:
		switch method {
		case OwnerExact:
			return e.sumMaxExact(q)
		case OwnerAppro, GreedySum:
			return e.sumMaxAppro(q)
		case Brute:
			return e.bruteForce(q, cost)
		}
	}
	return Result{}, fmt.Errorf("%w: %v with %v", ErrUnsupported, cost, method)
}

// Feasible reports whether set covers q's keywords.
func (e *Engine) Feasible(q Query, set []dataset.ObjectID) bool {
	var u kwds.Set
	for _, id := range set {
		u = u.Union(e.DS.Object(id).Keywords)
	}
	return u.Covers(q.Keywords)
}

// EvalCost computes cost(S) for the given cost function. It panics on an
// empty set (a CoSKQ answer is never empty for a non-empty query).
func (e *Engine) EvalCost(cost CostKind, q geo.Point, set []dataset.ObjectID) float64 {
	if len(set) == 0 {
		panic("coskq: EvalCost on empty set")
	}
	maxD, minD, sumD := math.Inf(-1), math.Inf(1), 0.0
	for _, id := range set {
		d := q.Dist(e.DS.Object(id).Loc)
		sumD += d
		if d > maxD {
			maxD = d
		}
		if d < minD {
			minD = d
		}
	}
	maxPair := 0.0
	for i := 0; i < len(set); i++ {
		pi := e.DS.Object(set[i]).Loc
		for j := i + 1; j < len(set); j++ {
			if d := pi.Dist(e.DS.Object(set[j]).Loc); d > maxPair {
				maxPair = d
			}
		}
	}
	switch cost {
	case MaxSum:
		return maxD + maxPair
	case Dia:
		return math.Max(maxD, maxPair)
	case Sum:
		return sumD
	case MinMax:
		return minD + maxPair
	case SumMax:
		return sumD + maxPair
	default:
		panic(fmt.Sprintf("coskq: unknown cost kind %d", int(cost)))
	}
}

// keywordNN returns the object nearest to p containing kw, answering
// from the per-call memo when one is attached (withCtx) and the point
// matches the memo's. Algorithms that walk the same per-keyword NN seeds
// repeatedly — nnSeed followed by farthestNNKeyword, or an exact search
// re-seeding after bound refinement — hit the memo instead of re-walking
// the IR-tree.
func (e *Engine) keywordNN(p geo.Point, kw kwds.ID) (dataset.ObjectID, float64, bool) {
	m := e.nnmemo
	if m == nil {
		return e.lookupNN(p, kw)
	}
	if !m.valid || m.p != p {
		m.reset(p)
	}
	for i, k := range m.kws {
		if k == kw {
			return m.ids[i], m.ds[i], m.oks[i]
		}
	}
	id, d, ok := e.lookupNN(p, kw)
	m.add(kw, id, d, ok)
	return id, d, ok
}

// lookupNN resolves one keyword NN below the per-query memo: the
// cluster-local share of a grouped batch first, then the engine-level
// NNCache, then the IR-tree. Every cache hit is validity-checked
// (nncache.go), so the chain returns bit-identical results to a bare
// Tree.NN regardless of which layer answers. Misses with a cache
// attached walk NN2 — the same best-first search, continued one object
// further — so the validity radius can be recorded.
func (e *Engine) lookupNN(p geo.Point, kw kwds.ID) (dataset.ObjectID, float64, bool) {
	s, c := e.clusterNN, e.NNCache
	if s == nil && c == nil {
		return e.Tree.NN(p, kw)
	}
	fault.Hit(fault.NNCacheProbe)
	if s != nil {
		if id, d, ok, hit := s.lookup(p, kw); hit {
			return id, d, ok
		}
	}
	if c != nil {
		if id, d, ok, hit := c.Lookup(p, kw); hit {
			return id, d, ok
		}
	}
	id, d1, d2, ok := e.Tree.NN2(p, kw)
	var loc geo.Point
	if ok {
		loc = e.DS.Object(id).Loc
	}
	if c != nil {
		c.Store(p, kw, id, loc, d1, d2, ok)
	}
	if s != nil {
		s.store(p, kw, id, loc, d1, d2, ok)
	}
	return id, d1, ok
}

// nnSeed computes the nearest neighbor set N(q), its cost under the given
// cost function, and d_f = max_{o∈N(q)} d(o,q). It returns ErrInfeasible
// when some query keyword has no object. The phase is charged to
// stats.Phases.Seed and recorded as an "nn_seed" span when tracing.
func (e *Engine) nnSeed(q Query, cost CostKind, stats *Stats) (set []dataset.ObjectID, c, df float64, err error) {
	sp := e.tr.Begin("nn_seed")
	t0 := time.Now()
	ids := make([]dataset.ObjectID, 0, len(q.Keywords))
	for _, kw := range q.Keywords {
		id, d, ok := e.keywordNN(q.Loc, kw)
		if !ok {
			stats.Phases.Seed += time.Since(t0)
			sp.End()
			return nil, 0, 0, ErrInfeasible
		}
		if d > df {
			df = d
		}
		dup := false
		for _, x := range ids {
			if x == id {
				dup = true
				break
			}
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	c = e.EvalCost(cost, q.Loc, ids)
	stats.Phases.Seed += time.Since(t0)
	if sp != nil {
		sp.Attr("seed_size", float64(len(ids)))
		sp.Attr("seed_cost", c)
		sp.Attr("d_f", df)
	}
	sp.End()
	return ids, c, df, nil
}

// canonical returns set sorted ascending with duplicates removed, the form
// every algorithm returns.
func canonical(set []dataset.ObjectID) []dataset.ObjectID {
	if len(set) == 0 {
		return nil
	}
	out := append([]dataset.ObjectID(nil), set...)
	// Insertion sort: answer sets have at most |q.ψ| + 1 members.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	dedup := out[:1]
	for _, id := range out[1:] {
		if id != dedup[len(dedup)-1] {
			dedup = append(dedup, id)
		}
	}
	return dedup
}

// BooleanKNN answers the classic boolean kNN spatial keyword query (the
// single-object query family of the related literature): the k objects
// nearest to p whose keyword sets each cover ALL of keywords, ascending
// by distance.
func (e *Engine) BooleanKNN(p geo.Point, keywords kwds.Set, k int) []dataset.ObjectID {
	return e.Tree.BooleanKNN(p, keywords, k)
}
