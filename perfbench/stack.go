package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/epoch"
	"coskq/internal/metrics"
	"coskq/internal/server"
	"coskq/internal/shard"
)

// Serving modes, one per way cmd/coskq-server can be started.
const (
	modeEngine = "engine" // coskq-server -data D
	modeRouted = "routed" // coskq-server -data D -shards 4 -partition subtree
	modeLive   = "live"   // coskq-server -data D -live
	modeBatch  = "batch"  // coskq-server -data D -nn-cache 4096
)

const (
	routedShards  = 4
	batchNNCache  = 4096
	serverTimeout = 30 * time.Second // coskq-server's -timeout default
)

// stack is one running server: the program's public handler behind a
// loopback listener, built the way cmd/coskq-server builds it. Every
// knob coskq-server leaves at its zero value stays zero here.
type stack struct {
	mode    string
	reg     *metrics.Registry
	eng     *core.Engine  // engine, batch and live (seed) modes
	router  *shard.Router // routed mode
	store   *epoch.Store  // live mode
	handler http.Handler  // the program's public handler
	srv     *http.Server
	served  chan error
	base    string
}

// serverOptions mirrors coskq-server's defaults. Request logs go through
// the same text handler, but into io.Discard rather than a terminal.
func serverOptions(reg *metrics.Registry) server.Options {
	return server.Options{
		Timeout:  serverTimeout,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Registry: reg,
		Degrade:  core.DegradeFail,
	}
}

// buildStack indexes ds for mode and starts serving it on loopback.
// rec, when non-nil, wraps the handler (and the routed mode's shard
// backends) in span-recording decorators.
func buildStack(mode string, ds *dataset.Dataset, rec *recorder) (*stack, error) {
	reg := metrics.NewRegistry()
	opts := serverOptions(reg)
	st := &stack{mode: mode, reg: reg}
	switch mode {
	case modeRouted:
		part, ok := shard.PartitionerByName("subtree")
		if !ok {
			return nil, errors.New("subtree partitioner missing")
		}
		rt, err := shard.NewLocalRouter(ds, routedShards, part, 0)
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		if rec != nil {
			rt.Backends = traceBackends(rec, rt.Backends)
		}
		st.router = rt
		st.handler = server.NewScatterGather(rt, opts)
	default:
		eng := core.NewEngine(ds, 0)
		eng.Metrics = core.NewEngineMetrics(reg)
		if mode == modeBatch {
			eng.EnableNNCache(batchNNCache)
		}
		st.eng = eng
		if mode == modeLive {
			st.store = epoch.New(eng, epoch.Options{})
			st.handler = server.NewLive(st.store, opts)
		} else {
			st.handler = server.NewWith(eng, opts)
		}
	}
	h := st.handler
	if rec != nil {
		h = tracedHandler(rec, h)
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeStore()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	st.served = make(chan error, 1)
	st.base = "http://" + ln.Addr().String()
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

func (st *stack) closeStore() {
	if st.store != nil {
		st.store.Close()
	}
}

// close stops the listener, waits for the serve loop to return, then
// stops the live store's applier.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.srv.Shutdown(ctx); err != nil {
		st.srv.Close()
	}
	<-st.served
	st.closeStore()
}

// engine returns the engine a direct replay should solve on: the
// serving engine, the live store's current generation, or for the
// routed mode nil (the caller builds a single engine over the dataset).
func (st *stack) engine() *core.Engine {
	if st.store != nil {
		g := st.store.Pin()
		defer g.Unpin()
		return g.Eng
	}
	return st.eng
}

// counter reads one counter of the server's registry.
func (st *stack) counter(name string) uint64 { return st.reg.Counter(name).Value() }
