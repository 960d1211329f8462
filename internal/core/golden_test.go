package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"coskq/internal/datagen"
)

// goldenDigests pins the answers of every owner-driven exact variant on a
// seeded Hotel-profile workload: SHA-256 over math.Float64bits(cost) and
// the canonical set of each answer, in query order (plus the four effort
// counters for OwnerExact). A refactor of the owner loop or the cover
// enumeration must leave every digest unchanged; a legitimate answer
// change has to update them knowingly. The digests hold for amd64, where
// the compiler never fuses multiply-adds: an FMA-fusing architecture
// rounds distances differently in the last bit.
var goldenDigests = map[string]string{
	"OwnerExact/MaxSum": "fc82c772628f08b19f3814ff232ad629fd370c7da74fd32e37fc9f0491868384",
	"OwnerExact/Dia":    "48e5b6aaccae0b03a3b04a0129c049dc96e021a5a4b5f9dff010777350cd47db",
	"Alpha/0.25":        "3041009b6b4671334c171c03c9540dddb8f0f1ef487f4de6acaf489f38df37d9",
	"Alpha/0.5":         "736bc3e7e9c0459ceb549d1da67d091043404aaa7d460e6ca736569ab60f4bdc",
	"Alpha/0.8":         "fddeca941cecebe9f2a5439b6dabb614b897cd84f19b57e60ac9846b046a5a0d",
	"TopK4/MaxSum":      "ebe829fb839d2383ef273f7018769c467036a3f320853633da79bc98bcb94e4b",
	"TopK4/Dia":         "9614945eea5ad9d735fc4905160f5aa0eb207d1320d136cb9533704c1e55fde6",
	"MinMax/OwnerExact": "c8201fbf2398468f6e7f1d0a12c17fe97627773d24ae36a83dc157087379129a",
}

// goldenQueries draws the seeded Hotel query set: the paper's generator
// (keyword band [0,40)) at |q.ψ| ∈ {3, 6, 9}.
func goldenQueries(e *Engine, perSize int) []Query {
	g := datagen.NewQueryGen(e.DS, e.Inv, 0, 40, 1301)
	var qs []Query
	for _, k := range []int{3, 6, 9} {
		for i := 0; i < perSize; i++ {
			loc, kws := g.Next(k)
			qs = append(qs, Query{Loc: loc, Keywords: kws})
		}
	}
	return qs
}

func hashAnswer(h hash.Hash, r Result) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Cost))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(r.Set)))
	h.Write(buf[:])
	for _, id := range canonical(r.Set) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(id))
		h.Write(buf[:4])
	}
}

func hashInts(h hash.Hash, xs ...int) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
}

// TestGoldenOwnerDrivenAnswers checks every owner-driven exact variant
// against the pinned digests.
func TestGoldenOwnerDrivenAnswers(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating-point rounding")
	}
	ds := datagen.Generate(datagen.ProfileHotel(7))
	e := NewEngine(ds, 0)
	qs := goldenQueries(e, 16)

	got := make(map[string]string, len(goldenDigests))
	for _, cost := range []CostKind{MaxSum, Dia} {
		h := sha256.New()
		for i, q := range qs {
			r, err := e.Solve(q, cost, OwnerExact)
			if err != nil {
				t.Fatalf("OwnerExact %v q%d: %v", cost, i, err)
			}
			hashAnswer(h, r)
			hashInts(h, r.Stats.NodesExpanded, r.Stats.CandidatesSeen, r.Stats.OwnersTried, r.Stats.SetsEvaluated)
		}
		got[fmt.Sprintf("OwnerExact/%v", cost)] = hex.EncodeToString(h.Sum(nil))
	}
	for _, alpha := range []float64{0.25, 0.5, 0.8} {
		h := sha256.New()
		for i, q := range qs {
			r, err := e.SolveAlpha(q, alpha, OwnerExact)
			if err != nil {
				t.Fatalf("SolveAlpha %v q%d: %v", alpha, i, err)
			}
			hashAnswer(h, r)
		}
		got[fmt.Sprintf("Alpha/%v", alpha)] = hex.EncodeToString(h.Sum(nil))
	}
	for _, cost := range []CostKind{MaxSum, Dia} {
		h := sha256.New()
		for i, q := range qs {
			rs, err := e.TopK(q, cost, 4)
			if err != nil {
				t.Fatalf("TopK %v q%d: %v", cost, i, err)
			}
			hashInts(h, len(rs))
			for _, r := range rs {
				hashAnswer(h, r)
			}
		}
		got[fmt.Sprintf("TopK4/%v", cost)] = hex.EncodeToString(h.Sum(nil))
	}
	h := sha256.New()
	for i, q := range qs {
		r, err := e.Solve(q, MinMax, OwnerExact)
		if err != nil {
			t.Fatalf("MinMax q%d: %v", i, err)
		}
		hashAnswer(h, r)
	}
	got["MinMax/OwnerExact"] = hex.EncodeToString(h.Sum(nil))

	for _, name := range []string{"OwnerExact/MaxSum", "OwnerExact/Dia", "Alpha/0.25", "Alpha/0.5", "Alpha/0.8", "TopK4/MaxSum", "TopK4/Dia", "MinMax/OwnerExact"} {
		if got[name] != goldenDigests[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], goldenDigests[name])
		}
	}
}
