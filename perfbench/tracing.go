package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coskq/internal/shard"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder was created; spans of one request share
// Req, and Parent names the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil or switched
// off recorder records nothing, so untraced traffic pays one check per
// boundary.
type recorder struct {
	t0    time.Time
	on    atomic.Bool // spans are recorded only while on
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// setOn switches recording; a nil recorder stays off.
func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// begin opens a span; the returned func closes and records it.
func (r *recorder) begin(name string, req, parent int64) (id int64, end func()) {
	if r == nil || !r.on.Load() {
		return 0, func() {}
	}
	id = r.ids.Add(1)
	start := r.now()
	return id, func() {
		s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: r.now()}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// timed runs fn inside a span and returns the span's duration.
func (r *recorder) timed(name string, req, parent int64, fn func()) time.Duration {
	_, end := r.begin(name, req, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	end()
	return d
}

// snapshot returns the recorded spans ordered by start time.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// dump writes every span as one JSON line.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval that its direct children cover.
func selfTimes(spans []span, name string) []time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, time.Duration(s.End-s.Start-covered))
	}
	return out
}

// spanCtx carries the request id and the enclosing span id across a
// call into the program, so decorators below it can parent their spans.
type spanCtx struct{ req, parent int64 }

type spanCtxKey struct{}

func withSpan(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{req, parent})
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc
}

// Headers the load generator sets so the server-side wrapper can join
// its span to the client's request span.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// tracedHandler wraps the program's public handler in a server.handler
// span parented to the client's loadgen.request span.
func tracedHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		id, end := rec.begin("server.handler", req, parent)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), req, id)))
		end()
	})
}

// tracedBackend decorates a shard backend with shard.nn and
// shard.collect spans. The router calls backends only through the
// Backend interface, so the decoration cannot change its behaviour.
type tracedBackend struct {
	shard.Backend
	rec *recorder
}

func traceBackends(rec *recorder, bs []shard.Backend) []shard.Backend {
	out := make([]shard.Backend, len(bs))
	for i, b := range bs {
		out[i] = tracedBackend{Backend: b, rec: rec}
	}
	return out
}

func (b tracedBackend) NN(ctx context.Context, q shard.ShardQuery) (shard.NNResult, error) {
	sc := spanFrom(ctx)
	_, end := b.rec.begin("shard.nn", sc.req, sc.parent)
	defer end()
	return b.Backend.NN(ctx, q)
}

func (b tracedBackend) Collect(ctx context.Context, q shard.ShardQuery, radius float64) (shard.CollectResult, error) {
	sc := spanFrom(ctx)
	_, end := b.rec.begin("shard.collect", sc.req, sc.parent)
	defer end()
	return b.Backend.Collect(ctx, q, radius)
}
