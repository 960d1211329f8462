package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client issues the workload's HTTP requests over at most conns
// keep-alive connections.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder
	reqs atomic.Int64
}

func newClient(base string, conns int, rec *recorder) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * serverTimeout}, base: base, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// record is the outcome of one request.
type record struct {
	idx    int // position in the workload's request sequence
	due    time.Time
	start  time.Time
	end    time.Time
	status int
	err    error
	body   []byte // dropped once checked
	wrong  error  // why a 200 answer failed its check
}

func (r record) ok() bool { return r.err == nil && r.status == http.StatusOK }

// latency is the time from when the request was due to its response,
// a day for a failed request or a wrong answer so it misses every limit.
func (r record) latency() time.Duration {
	if !r.ok() || r.wrong != nil {
		return 24 * time.Hour
	}
	return r.end.Sub(r.due)
}

// do sends one request. Under tracing it opens a loadgen.request root
// span and passes its ids to the server-side wrapper in headers.
func (c *client) do(method, path string, body []byte, due time.Time) record {
	rec := record{due: due}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		rec.err = err
		return rec
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	reqID := c.reqs.Add(1)
	id, end := c.rec.begin("loadgen.request", reqID, 0)
	if c.rec != nil {
		req.Header.Set(hdrReq, strconv.FormatInt(reqID, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	rec.start = time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		rec.status = resp.StatusCode
		rec.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.end = time.Now()
	end()
	rec.err = err
	return rec
}

// phase is one stretch of traffic. Reads arrive open-loop at readRate
// per second, or closed-loop (each worker sends its next read when the
// previous one returns) when readRate is 0. Writes, when writeRate > 0,
// arrive open-loop at writeRate per second beside the reads. workers
// bounds the requests in flight across both.
type phase struct {
	dur       time.Duration
	readRate  float64
	writeRate float64
	workers   int
	maxWrites int // writes available; the writer stops after them
}

type phaseResult struct {
	t0, last time.Time
	reads    []record
	writes   []record
	missed   int // open-loop reads never sent because the sender fell too far behind
}

func (p phaseResult) elapsed() time.Duration { return p.last.Sub(p.t0) }

// overrunLimit bounds how long an open-loop phase may run past its end
// to send requests that were due before it; later ones count as missed.
const overrunLimit = 10 * time.Second

// run drives the phase. read and write execute the i-th request of
// their sequences with the given due time.
func (p phase) run(read, write func(i int, due time.Time) record) phaseResult {
	t0 := time.Now()
	stop := t0.Add(p.dur)
	abandon := stop.Add(overrunLimit)
	var (
		mu     sync.Mutex
		nr, nw int
	)
	const (
		jobNone = iota
		jobRead
		jobWrite
	)
	next := func() (kind, i int, due time.Time) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		var wDue, rDue time.Time
		hasW := p.writeRate > 0 && nw < p.maxWrites
		if hasW {
			wDue = t0.Add(time.Duration(float64(nw) / p.writeRate * float64(time.Second)))
			hasW = wDue.Before(stop) && now.Before(abandon)
		}
		if p.readRate > 0 {
			rDue = t0.Add(time.Duration(float64(nr) / p.readRate * float64(time.Second)))
		} else {
			rDue = now
		}
		hasR := rDue.Before(stop) && now.Before(abandon)
		switch {
		case hasW && (!hasR || !wDue.After(rDue)):
			nw++
			return jobWrite, nw - 1, wDue
		case hasR:
			nr++
			return jobRead, nr - 1, rDue
		}
		return jobNone, 0, time.Time{}
	}
	reads := make([][]record, p.workers)
	writes := make([][]record, p.workers)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				kind, i, due := next()
				if kind == jobNone {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if kind == jobRead {
					r := read(i, due)
					r.idx = i
					reads[w] = append(reads[w], r)
				} else {
					r := write(i, due)
					r.idx = i
					writes[w] = append(writes[w], r)
				}
			}
		}(w)
	}
	wg.Wait()
	res := phaseResult{t0: t0, last: t0}
	for w := range reads {
		res.reads = append(res.reads, reads[w]...)
		res.writes = append(res.writes, writes[w]...)
	}
	for _, r := range append(res.reads[:len(res.reads):len(res.reads)], res.writes...) {
		if r.end.After(res.last) {
			res.last = r.end
		}
	}
	if p.readRate > 0 {
		if want := int(p.dur.Seconds() * p.readRate); want > len(res.reads) {
			res.missed = want - len(res.reads)
		}
	}
	return res
}

// latenciesMs returns every read's latency from its due time in ms,
// with failures and missed sends at a day so they miss any limit.
func latenciesMs(recs []record, missed int) []float64 {
	out := make([]float64, 0, len(recs)+missed)
	for _, r := range recs {
		out = append(out, msOf(r.latency()))
	}
	for i := 0; i < missed; i++ {
		out = append(out, msOf(24*time.Hour))
	}
	return out
}

// lagsMs returns how late the sender started each request, in ms.
func lagsMs(recs []record) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if !r.start.IsZero() {
			out = append(out, msOf(max(0, r.start.Sub(r.due))))
		}
	}
	return out
}
