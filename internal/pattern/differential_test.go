package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/reservoir"
)

// itemOnlyView hides a reservoir view's IntersectView methods, forcing the
// enumeration onto the probe-based fallback path — the naive reference
// enumeration the merge/bitset path must match instance-for-instance.
type itemOnlyView struct {
	ItemView
}

// instKey serializes one instance — its edges in emission order with the
// identity of each payload — so multisets of instances can be compared across
// enumeration strategies.
func instKey(edges []graph.Edge, pays []any) string {
	var sb strings.Builder
	for i, e := range edges {
		fmt.Fprintf(&sb, "%d-%d@%p;", e.U, e.V, pays[i])
	}
	return sb.String()
}

func collectInstances(m *MultiCompleter, v ItemView, a, b graph.VertexID) []string {
	var out []string
	m.ForEach(v, a, b, []func([]graph.Edge, []any) bool{func(others []graph.Edge, pays []any) bool {
		out = append(out, instKey(others, pays))
		return true
	}}, nil)
	sort.Strings(out)
	return out
}

// recordSink reconstructs full instances from the CliqueSink callbacks so the
// zero-materialization path can be compared against the generic one.
type recordSink struct {
	t          *testing.T
	a, b       graph.VertexID
	ws         []graph.VertexID
	payA, payB []any
	insts      []string
}

func (s *recordSink) OnCommon(i int, w graph.VertexID, payA, payB any) {
	if i != len(s.ws) {
		s.t.Fatalf("OnCommon index %d, expected %d", i, len(s.ws))
	}
	if len(s.ws) > 0 && w <= s.ws[len(s.ws)-1] {
		s.t.Fatalf("OnCommon out of order: %d after %d", w, s.ws[len(s.ws)-1])
	}
	s.ws = append(s.ws, w)
	s.payA = append(s.payA, payA)
	s.payB = append(s.payB, payB)
}

func (s *recordSink) OnTriangle(i int) bool {
	s.insts = append(s.insts, instKey(
		[]graph.Edge{graph.NewEdge(s.a, s.ws[i]), graph.NewEdge(s.b, s.ws[i])},
		[]any{s.payA[i], s.payB[i]}))
	return true
}

func (s *recordSink) OnPair(i, j int, payIJ any) bool {
	w, x := s.ws[i], s.ws[j]
	s.insts = append(s.insts, instKey(
		[]graph.Edge{
			graph.NewEdge(s.a, w), graph.NewEdge(s.b, w),
			graph.NewEdge(s.a, x), graph.NewEdge(s.b, x),
			graph.NewEdge(w, x),
		},
		[]any{s.payA[i], s.payB[i], s.payA[j], s.payB[j], payIJ}))
	return true
}

func (s *recordSink) OnTriple(i, j, k int, payIJ, payIK, payJK any) bool {
	w, x, y := s.ws[i], s.ws[j], s.ws[k]
	s.insts = append(s.insts, instKey(
		[]graph.Edge{
			graph.NewEdge(s.a, w), graph.NewEdge(s.b, w),
			graph.NewEdge(s.a, x), graph.NewEdge(s.b, x),
			graph.NewEdge(s.a, y), graph.NewEdge(s.b, y),
			graph.NewEdge(w, x), graph.NewEdge(w, y), graph.NewEdge(x, y),
		},
		[]any{
			s.payA[i], s.payB[i], s.payA[j], s.payB[j], s.payA[k], s.payB[k],
			payIJ, payIK, payJK,
		}))
	return true
}

// checkDifferential compares, for one event edge and view, the merge/bitset
// enumeration against the probe-based reference for every kind, and the
// CliqueSink fast path against the generic path for the clique kinds.
func checkDifferential(t *testing.T, comps map[Kind]*MultiCompleter, view ItemView, a, b graph.VertexID, label string) {
	t.Helper()
	for _, k := range Kinds() {
		m := comps[k]
		fast := collectInstances(m, view, a, b)
		naive := collectInstances(m, itemOnlyView{view}, a, b)
		if !reflect.DeepEqual(fast, naive) {
			t.Fatalf("%s %s (%d,%d): merge path %d instances, probe reference %d\nmerge: %v\nprobe: %v",
				label, k, a, b, len(fast), len(naive), fast, naive)
		}
		if !k.IsClique() {
			continue
		}
		sink := &recordSink{t: t, a: a, b: b}
		m.ForEach(view, a, b, make([]func([]graph.Edge, []any) bool, 1), sink)
		sort.Strings(sink.insts)
		if !reflect.DeepEqual(sink.insts, fast) {
			t.Fatalf("%s %s (%d,%d): sink path %d instances, generic %d\nsink: %v\ngeneric: %v",
				label, k, a, b, len(sink.insts), len(fast), sink.insts, fast)
		}
	}
}

// oneKindCompleters returns a one-kind MultiCompleter per pattern kind.
func oneKindCompleters(t testing.TB) map[Kind]*MultiCompleter {
	comps := map[Kind]*MultiCompleter{}
	for _, k := range Kinds() {
		m, err := NewMultiCompleter([]Kind{k})
		if err != nil {
			t.Fatal(err)
		}
		comps[k] = m
	}
	return comps
}

// runDifferentialHistory drives a random insert/delete/tag history on a real
// reservoir, stopping at checkpoints to compare every enumeration strategy on
// random event edges over the plain and the Live view, and over a
// graph.AdjSet holding the same edges.
func runDifferentialHistory(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	res := reservoir.New(512)
	g := graph.NewAdjSet()
	present := map[graph.Edge]bool{}
	comps := oneKindCompleters(t)
	const n = 28 // small dense vertex set: every kind gets instances
	for step := 0; step < 2500; step++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		switch {
		case present[e] && rng.Intn(3) == 0:
			res.Remove(e)
			g.Remove(e)
			delete(present, e)
		case present[e]:
			it, _ := res.Get(e)
			res.SetDeleted(it, rng.Intn(2) == 0)
		case !res.Full():
			res.PushValue(e, 1+rng.Float64(), rng.Float64(), int64(step))
			g.Add(e)
			present[e] = true
		}
		if step%83 != 0 || res.Len() == 0 {
			continue
		}
		for trial := 0; trial < 6; trial++ {
			a := graph.VertexID(rng.Intn(n))
			b := graph.VertexID(rng.Intn(n))
			if a == b {
				continue
			}
			checkDifferential(t, comps, res, a, b, "plain")
			checkDifferential(t, comps, res.Live(), a, b, "live")
			checkDifferential(t, comps, g, a, b, "adjset")
		}
	}
}

// TestDifferentialEnumeration: the sorted-merge (and bitset) enumeration must
// emit the identical instance multiset — edges and payload identities — as
// the naive probe-based reference, across all five kinds, plain and Live
// views, and random insert/delete/tag histories.
func TestDifferentialEnumeration(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferentialHistory(t, seed)
		})
	}
}

// TestDifferentialEnumerationBitset reruns the differential history with the
// bitset window forced open, so 5-clique triple discovery exercises the
// mask-AND path on the same inputs.
func TestDifferentialEnumerationBitset(t *testing.T) {
	oldMin := bitsetMinCommon
	bitsetMinCommon = 2
	defer func() { bitsetMinCommon = oldMin }()
	runDifferentialHistory(t, 3)
}

// FuzzDifferentialEnumeration drives the same comparison from a fuzzed
// operation tape: each byte pair encodes an edge, each third byte an action.
// A graph.AdjSet follows the reservoir's edges and is compared too.
func FuzzDifferentialEnumeration(f *testing.F) {
	f.Add([]byte{1, 2, 0, 2, 3, 0, 1, 3, 0, 4, 5, 1})
	f.Add([]byte{7, 8, 0, 8, 9, 0, 7, 9, 0, 7, 8, 2, 1, 2, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		res := reservoir.New(128)
		g := graph.NewAdjSet()
		comps := oneKindCompleters(t)
		const n = 12
		for i := 0; i+2 < len(tape); i += 3 {
			u := graph.VertexID(tape[i] % n)
			v := graph.VertexID(tape[i+1] % n)
			if u == v {
				continue
			}
			e := graph.NewEdge(u, v)
			it, ok := res.Get(e)
			switch tape[i+2] % 3 {
			case 0:
				if !ok && !res.Full() {
					res.PushValue(e, 1, float64(i), int64(i))
					g.Add(e)
				}
			case 1:
				if ok {
					res.Remove(e)
					g.Remove(e)
				}
			case 2:
				if ok {
					res.SetDeleted(it, !it.Deleted)
				}
			}
		}
		for a := graph.VertexID(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				checkDifferential(t, comps, res, a, b, "plain")
				checkDifferential(t, comps, res.Live(), a, b, "live")
				checkDifferential(t, comps, g, a, b, "adjset")
			}
		}
	})
}
