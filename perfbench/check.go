package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
)

// answerObj and answer decode the /query and /batch answer shapes.
type answerObj struct {
	ID       uint32   `json:"id"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords"`
}

type answer struct {
	Cost     float64     `json:"cost"`
	Objects  []answerObj `json:"objects"`
	Degraded bool        `json:"degraded"`
	Error    string      `json:"error"`
}

type batchAnswer struct {
	Results []answer `json:"results"`
}

// pointCost recomputes cost(S) from the answer's coordinates in the
// same operation order as core.Engine.EvalCost, so a correct answer
// matches its reported cost bit for bit.
func pointCost(cost core.CostKind, q geo.Point, objs []answerObj) float64 {
	maxD := math.Inf(-1)
	for _, o := range objs {
		if d := q.Dist(geo.Point{X: o.X, Y: o.Y}); d > maxD {
			maxD = d
		}
	}
	maxPair := 0.0
	for i := range objs {
		pi := geo.Point{X: objs[i].X, Y: objs[i].Y}
		for j := i + 1; j < len(objs); j++ {
			if d := pi.Dist(geo.Point{X: objs[j].X, Y: objs[j].Y}); d > maxPair {
				maxPair = d
			}
		}
	}
	if cost == core.Dia {
		return math.Max(maxD, maxPair)
	}
	return maxD + maxPair
}

// checkAnswer verifies one answer to the query (loc, words) under cost
// and method:
//   - it is a complete (not degraded), non-empty set covering every
//     query keyword;
//   - its reported cost equals the cost recomputed from its objects;
//   - when ds is given, every object is the dataset object of that id;
//   - when ref is a number (the exact optimum), an exact method matches
//     it bit for bit, and an approximation lies in [ref, ratio·ref].
func checkAnswer(a answer, loc geo.Point, words []string, cost core.CostKind, method core.Method, ref float64, ds *dataset.Dataset) error {
	if a.Error != "" {
		return fmt.Errorf("item error: %s", a.Error)
	}
	if a.Degraded {
		return errors.New("degraded answer")
	}
	if len(a.Objects) == 0 {
		return errors.New("empty answer set")
	}
	have := map[string]bool{}
	for _, o := range a.Objects {
		for _, w := range o.Keywords {
			have[w] = true
		}
	}
	for _, w := range words {
		if !have[w] {
			return fmt.Errorf("keyword %s uncovered", w)
		}
	}
	if got := pointCost(cost, loc, a.Objects); math.Float64bits(got) != math.Float64bits(a.Cost) {
		return fmt.Errorf("reported cost %v but its objects cost %v", a.Cost, got)
	}
	if ds != nil {
		for _, o := range a.Objects {
			if int(o.ID) >= ds.Len() {
				return fmt.Errorf("object %d out of range", o.ID)
			}
			d := ds.Object(dataset.ObjectID(o.ID))
			if d.Loc.X != o.X || d.Loc.Y != o.Y || len(d.Keywords) != len(o.Keywords) {
				return fmt.Errorf("object %d differs from the dataset", o.ID)
			}
			for i, id := range d.Keywords {
				if ds.Vocab.Word(id) != o.Keywords[i] {
					return fmt.Errorf("object %d keywords differ from the dataset", o.ID)
				}
			}
		}
	}
	if math.IsNaN(ref) {
		return nil
	}
	if method == core.OwnerExact {
		if math.Float64bits(a.Cost) != math.Float64bits(ref) {
			return fmt.Errorf("exact cost %v, reference %v", a.Cost, ref)
		}
		return nil
	}
	ratio := core.ApproRatioBound(cost, method)
	if a.Cost < ref || a.Cost > ratio*ref*(1+1e-12) {
		return fmt.Errorf("approximate cost %v outside [%v, %v·%v]", a.Cost, ref, ratio, ref)
	}
	return nil
}

func checkQueryBody(body []byte, q *querySpec, ds *dataset.Dataset) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	return checkAnswer(a, q.loc, q.words, q.cost, q.method, q.ref, ds)
}

// checkBatchBody verifies every item of a /batch answer.
func checkBatchBody(body []byte, b *batchSpec, ds *dataset.Dataset) error {
	var ba batchAnswer
	if err := json.Unmarshal(body, &ba); err != nil {
		return fmt.Errorf("decode batch answer: %w", err)
	}
	if len(ba.Results) != len(b.queries) {
		return fmt.Errorf("batch answered %d of %d queries", len(ba.Results), len(b.queries))
	}
	for i, a := range ba.Results {
		if err := checkAnswer(a, b.queries[i].Loc, b.words[i], b.cost, b.method, b.ref[i], ds); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}
