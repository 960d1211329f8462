// Command perfbench is the layered serving benchmark of the coskq
// repository. It builds one seeded workload, serves it over loopback
// HTTP through the constructors cmd/coskq-server uses, drives it from
// this process, checks every answer, and prints the metrics as JSON.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload hotel-query --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, and the
// spans are written under .bench_build/spans/. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// endToEnd maps each end-to-end metric of the result line to the
// report metric it reads, per primary request kind.
var endToEnd = []struct{ name, query, batch string }{
	{"setup_s", "setup_s", "setup_s"},
	{"heap_mb", "heap_mb", "heap_mb"},
	{"p50_ms", "query_p50_ms", "batch_p50_ms"},
}

// perLayer lists the per-layer metrics of the traced run's result line.
var perLayer = []string{
	"loadgen.lag_p99_ms", "loadgen.closed_qps",
	"server.handler_p50_us", "server.overhead_p50_us", "server.loopback_p50_us", "server.allocs_per_query",
	"core.solve_p50_us", "core.solve_p99_us", "core.parallel_over_serial",
	"core.nodes_per_query", "core.candidates_per_query", "core.owners_per_query", "core.sets_per_query",
	"core.seed_frac", "core.search_frac", "core.allocs_per_solve", "core.bytes_per_solve",
	"core.new_engine_ms", "core.batch_us_per_query", "core.batch_grouped_speedup", "core.nncache_hit_rate",
	"irtree.nn_p50_us", "irtree.relevant_in_disk_us", "irtree.build_ms",
	"shard.route_p50_us", "shard.route_p99_us", "shard.route_over_engine", "shard.route_self_p50_us",
	"shard.pool_size_p50", "shard.pruned_frac", "shard.allocs_per_route",
	"epoch.apply_p50_ms", "epoch.pin_ns",
	"runtime.gc_cpu_frac", "runtime.alloc_mb_per_s",
	"trace.overhead_frac",
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hotel-query, gn-routed, hotel-live or hotel-batch")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured traffic time in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		flag.Usage()
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runWorkload(w workloadSpec, seed int64, seconds float64, traced bool) (result, error) {
	r := newRun(w, seed, seconds, traced)
	if err := r.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer r.st.close()
	if err := r.prepare(); err != nil {
		return result{}, fmt.Errorf("inputs: %w", err)
	}
	r.measure()
	if traced {
		if err := r.layers(); err != nil {
			r.reads.wrong++
			r.reads.note(fmt.Errorf("replay: %w", err))
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := r.rec.dump(path); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		r.out.addCount("trace.spans", len(r.rec.snapshot()))
	}
	attempted := r.reads.attempted + r.writesT.attempted
	failed := r.reads.failed() + r.writesT.failed()
	if attempted > 0 {
		r.out.add("fail_frac", float64(failed)/float64(attempted), "ratio")
	}

	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	var missing []string
	pick := func(name, from string) {
		if v, ok := r.out.values[from]; ok {
			res.Metrics[name] = v
		} else {
			missing = append(missing, name)
		}
	}
	if traced {
		for _, n := range perLayer {
			pick(n, n)
		}
	} else {
		for _, m := range endToEnd {
			from := m.query
			if w.mode == modeBatch {
				from = m.batch
			}
			pick(m.name, from)
		}
	}
	res.Correct = failed == 0 && len(missing) == 0 && attempted > 0

	// Human-readable report: provenance, outcome counts and every metric
	// of the run by name with its unit. The result line follows it.
	fmt.Printf("provenance %s\n", mustJSON(provenance(w.name, seed, seconds, traced)))
	fmt.Printf("outcomes reads=%s writes=%s\n", mustJSON(r.reads.summary()), mustJSON(r.writesT.summary()))
	if len(missing) > 0 {
		fmt.Printf("missing metrics: %s\n", strings.Join(missing, ", "))
	}
	for _, n := range r.out.names {
		v := r.out.values[n]
		fmt.Printf("metric %-32s %16s %s\n", n, fmtFloat(v.Value), v.Unit)
	}
	return res, nil
}

func (t *tally) summary() map[string]any {
	return map[string]any{
		"attempted": t.attempted, "shed_429": t.shed, "status_5xx": t.server5xx,
		"transport": t.transport, "other_status": t.otherStatus, "wrong": t.wrong,
		"missed": t.missed, "first_error": t.firstErr,
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// provenance records what produced a run's numbers.
func provenance(workload string, seed int64, seconds float64, traced bool) map[string]any {
	return map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": gitCommit(), "source_sha256": sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git without running git; checkouts that
// are not repositories report "none" and rely on source_sha256.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout,
// so runs of the same code can be matched without a repository.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".git" || p == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
