// Command coskq answers a single collective spatial keyword query over a
// dataset file (see coskq-datagen), printing the chosen objects, the cost
// and search statistics for the selected cost function and algorithm.
//
// Usage:
//
//	coskq -data hotel.gob -x 500 -y 500 -kw w000001,w000004,w000010
//	coskq -data hotel.gob -x 500 -y 500 -kw w000001,w000004 -cost dia -method appro
//	coskq -data hotel.gob -x 500 -y 500 -k 5 -seed 7          # random query keywords
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"coskq"
	"coskq/internal/stats"
	"coskq/internal/trace"
	"coskq/internal/viz"
)

func parseCost(s string) (coskq.CostKind, error) {
	switch strings.ToLower(s) {
	case "maxsum":
		return coskq.MaxSum, nil
	case "dia":
		return coskq.Dia, nil
	case "sum":
		return coskq.Sum, nil
	case "minmax":
		return coskq.MinMax, nil
	}
	return 0, fmt.Errorf("unknown cost %q (want maxsum, dia, sum or minmax)", s)
}

func parseMethod(s string) (coskq.Method, error) {
	switch strings.ToLower(s) {
	case "exact", "owner-exact":
		return coskq.OwnerExact, nil
	case "appro", "owner-appro":
		return coskq.OwnerAppro, nil
	case "cao-exact":
		return coskq.CaoExact, nil
	case "cao-appro1":
		return coskq.CaoAppro1, nil
	case "cao-appro2":
		return coskq.CaoAppro2, nil
	case "brute":
		return coskq.Brute, nil
	case "greedy-sum":
		return coskq.GreedySum, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

func main() {
	var (
		data    = flag.String("data", "", "dataset file written by coskq-datagen (required)")
		x       = flag.Float64("x", 0, "query location x")
		y       = flag.Float64("y", 0, "query location y")
		kwList  = flag.String("kw", "", "comma-separated query keywords")
		k       = flag.Int("k", 0, "draw this many random query keywords instead of -kw")
		seed    = flag.Int64("seed", 1, "seed for -k random keywords")
		costStr = flag.String("cost", "maxsum", "cost function: maxsum, dia, sum, minmax")
		method  = flag.String("method", "exact", "algorithm: exact, appro, cao-exact, cao-appro1, cao-appro2, brute, greedy-sum")
		fanout  = flag.Int("fanout", 0, "IR-tree fanout (0 = default)")
		svgOut  = flag.String("svg", "", "also render the answer to this SVG file")
		explain = flag.Bool("explain", false, "print the per-phase execution trace after the answer")
		budget  = flag.Int("budget", 0, "exact-search node budget (0 = unlimited)")
		degrade = flag.String("degrade", "fail", "when -budget trips: fail, incumbent (best set so far), or fallback (approximate answer)")
		nnCache = flag.Int("nn-cache", 0, "engine keyword-NN cache capacity in entries (0 = disabled)")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "coskq: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "coskq:", err)
		os.Exit(1)
	}

	cost, errC := parseCost(*costStr)
	if errC != nil {
		die(errC)
	}
	m, errM := parseMethod(*method)
	if errM != nil {
		die(errM)
	}

	var ds *coskq.Dataset
	var err error
	if strings.HasSuffix(*data, ".csv") {
		ds, err = coskq.LoadCSVDataset(*data)
	} else {
		ds, err = coskq.LoadDataset(*data)
	}
	if err != nil {
		die(err)
	}
	policy, okP := coskq.ParseDegradePolicy(*degrade)
	if !okP {
		die(fmt.Errorf("unknown -degrade policy %q (use fail, incumbent, or fallback)", *degrade))
	}

	fmt.Printf("dataset %s: %s\n", ds.Name, ds.Stats())
	eng := coskq.NewEngine(ds, *fanout)
	eng.NodeBudget = *budget
	eng.Degrade = policy
	eng.EnableNNCache(*nnCache)

	var keywords coskq.KeywordSet
	switch {
	case *kwList != "":
		var missing []string
		for _, w := range strings.Split(*kwList, ",") {
			w = strings.TrimSpace(w)
			if id, ok := coskq.LookupKeyword(ds, w); ok {
				keywords = keywords.Union(coskq.NewKeywordSet(id))
			} else {
				missing = append(missing, w)
			}
		}
		if len(missing) > 0 {
			die(fmt.Errorf("keywords not in the dataset vocabulary: %s", strings.Join(missing, ", ")))
		}
	case *k > 0:
		g := coskq.NewQueryGen(eng, 0, 40, *seed)
		_, keywords = g.Next(*k)
	default:
		die(fmt.Errorf("provide query keywords with -kw or -k"))
	}

	q := coskq.Query{Loc: coskq.Point{X: *x, Y: *y}, Keywords: keywords}
	fmt.Printf("query: loc=%v keywords=%s cost=%v method=%v\n", q.Loc, keywords.Format(ds.Vocab), cost, m)

	ctx := context.Background()
	var tr *trace.Trace
	if *explain {
		tr = trace.New("query")
		ctx = trace.NewContext(ctx, tr)
	}
	res, err := eng.SolveCtx(ctx, q, cost, m)
	if err != nil {
		die(err)
	}
	if res.Degraded {
		fmt.Printf("DEGRADED answer (%s): best feasible set found before the search was cut short\n",
			res.Stats.DegradeReason)
	}
	fmt.Printf("cost: %.6g   (elapsed %s, owners tried %d, sets evaluated %d, nodes expanded %d)\n",
		res.Cost, stats.FmtDuration(res.Stats.Elapsed),
		res.Stats.OwnersTried, res.Stats.SetsEvaluated, res.Stats.NodesExpanded)
	for _, id := range res.Set {
		o := ds.Object(id)
		fmt.Printf("  object %-8d at %-24v d(q)=%-10.5g %s\n",
			o.ID, o.Loc, q.Loc.Dist(o.Loc), o.Keywords.Format(ds.Vocab))
	}
	if *explain {
		tr.Finish()
		fmt.Println("\ntrace:")
		tr.Export().WriteTree(os.Stdout)
	}

	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			die(err)
		}
		if err := viz.Render(f, eng, q, res, viz.Options{}); err != nil {
			f.Close()
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Printf("rendered %s\n", *svgOut)
	}
}
