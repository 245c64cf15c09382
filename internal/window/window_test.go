package window

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		window  int64
		half    float64
		wantErr bool
	}{
		{"zero", 0, 0, false},
		{"window", 100, 0, false},
		{"halflife", 0, 2.5, false},
		{"both", 100, 2.5, true},
		{"negative-window", -1, 0, true},
		{"negative-halflife", 0, -1, true},
		{"nan-halflife", 0, math.NaN(), true},
	}
	for _, c := range cases {
		err := Spec{Window: c.window, Halflife: c.half}.Validate()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Validate() err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

func TestNewNormalizesInfiniteHalflife(t *testing.T) {
	s, err := New(0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsZero() {
		t.Errorf("New(0, +Inf) = %v, want the zero (whole-stream) spec", s)
	}
}

func TestSpecLambda(t *testing.T) {
	s := Spec{Halflife: 10}
	// After exactly one halflife the decay factor must be 1/2.
	if got := math.Exp(-s.Lambda() * 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("decay after one halflife = %v, want 0.5", got)
	}
	if got := (Spec{}).Lambda(); got != 0 {
		t.Errorf("zero spec Lambda() = %v, want 0", got)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		window, half string
		want         Spec
		wantErr      bool
	}{
		{"", "", Spec{}, false},
		{"inf", "", Spec{}, false},
		{"", "inf", Spec{}, false},
		{"500", "", Spec{Window: 500}, false},
		{"", "2.5", Spec{Halflife: 2.5}, false},
		{"500", "2.5", Spec{}, true},
		{"0", "", Spec{}, true},
		{"-3", "", Spec{}, true},
		{"abc", "", Spec{}, true},
		{"", "0", Spec{}, true},
		{"", "-1", Spec{}, true},
		{"", "NaN", Spec{}, true},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.window, c.half)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSpec(%q, %q) err = %v, wantErr %v", c.window, c.half, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseSpec(%q, %q) = %v, want %v", c.window, c.half, got, c.want)
		}
	}
}

func TestRingBasic(t *testing.T) {
	var r Ring
	e1 := graph.NewEdge(1, 2)
	e2 := graph.NewEdge(2, 3)
	e3 := graph.NewEdge(3, 4)
	r.Push(e1, 1)
	r.Push(e2, 2)
	r.Push(e3, 3)
	if r.Len() != 3 || !r.Has(e2) {
		t.Fatalf("after 3 pushes: Len %d, Has(e2) %v", r.Len(), r.Has(e2))
	}
	// A genuine deletion kills e2; expiring past its tick must then skip it.
	if !r.Kill(e2) {
		t.Fatal("Kill(e2) = false, want true")
	}
	if r.Kill(e2) {
		t.Fatal("second Kill(e2) = true, want false")
	}
	got := []graph.Edge{}
	for {
		e, ok := r.ExpireOne(2)
		if !ok {
			break
		}
		got = append(got, e)
	}
	if len(got) != 1 || got[0] != e1 {
		t.Fatalf("expire through tick 2 popped %v, want just %v", got, e1)
	}
	if r.Len() != 1 || !r.Has(e3) {
		t.Fatalf("after expiry: Len %d, Has(e3) %v", r.Len(), r.Has(e3))
	}
}

func TestRingRepushMarksOldDead(t *testing.T) {
	var r Ring
	e := graph.NewEdge(1, 2)
	r.Push(e, 1)
	r.Kill(e)
	r.Push(e, 5)
	if r.Len() != 1 || !r.Has(e) {
		t.Fatalf("re-pushed edge not live: Len %d", r.Len())
	}
	// Expiring tick 1 hits the dead first entry, which must be skipped, not
	// returned — otherwise the still-live re-insertion would be subtracted.
	if _, ok := r.ExpireOne(1); ok {
		t.Fatal("expired a dead entry as live")
	}
	if e2, ok := r.ExpireOne(5); !ok || e2 != e {
		t.Fatalf("ExpireOne(5) = %v,%v, want %v,true", e2, ok, e)
	}
}

// ringModel is the trivial reference: a slice of (edge, tick, dead) scanned
// linearly. The property test drives Ring and the model with the same random
// operation sequence and demands identical observable behaviour.
type ringModel struct {
	entries []Entry
}

func (m *ringModel) has(e graph.Edge) bool {
	for _, ent := range m.entries {
		if !ent.Dead && ent.Edge == e {
			return true
		}
	}
	return false
}

func (m *ringModel) push(e graph.Edge, at int64) {
	for i := range m.entries {
		if !m.entries[i].Dead && m.entries[i].Edge == e {
			m.entries[i].Dead = true
		}
	}
	m.entries = append(m.entries, Entry{Edge: e, At: at})
}

func (m *ringModel) kill(e graph.Edge) bool {
	for i := range m.entries {
		if !m.entries[i].Dead && m.entries[i].Edge == e {
			m.entries[i].Dead = true
			return true
		}
	}
	return false
}

func (m *ringModel) expire(cutoff int64) []graph.Edge {
	var out []graph.Edge
	keep := m.entries[:0]
	for _, ent := range m.entries {
		if ent.At <= cutoff {
			if !ent.Dead {
				out = append(out, ent.Edge)
			}
			continue
		}
		keep = append(keep, ent)
	}
	m.entries = keep
	return out
}

// TestRingExpiryOrderProperty runs randomized push/kill/expire histories
// against the linear-scan model: live membership, expiry output (order
// included — expiry replays deletions in insertion order), and pending
// snapshot entries must all agree. `make race` runs it under -race.
func TestRingExpiryOrderProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		var r Ring
		var m ringModel
		tick := int64(0)
		edge := func() graph.Edge {
			u := graph.VertexID(rng.Intn(20))
			v := graph.VertexID(rng.Intn(20))
			for v == u {
				v = graph.VertexID(rng.Intn(20))
			}
			return graph.NewEdge(u, v)
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // push a fresh edge at the next tick
				e := edge()
				if r.Has(e) != m.has(e) {
					t.Fatalf("trial %d step %d: Has(%v) ring %v model %v", trial, step, e, r.Has(e), m.has(e))
				}
				if r.Has(e) {
					continue // the counter never double-pushes a live edge
				}
				tick++
				r.Push(e, tick)
				m.push(e, tick)
			case 6, 7: // genuine deletion of a random (possibly absent) edge
				e := edge()
				if got, want := r.Kill(e), m.kill(e); got != want {
					t.Fatalf("trial %d step %d: Kill(%v) ring %v model %v", trial, step, e, got, want)
				}
			default: // expire a random prefix
				cutoff := tick - int64(rng.Intn(30))
				want := m.expire(cutoff)
				var got []graph.Edge
				for {
					e, ok := r.ExpireOne(cutoff)
					if !ok {
						break
					}
					got = append(got, e)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d: expire(%d) popped %v, model %v", trial, step, cutoff, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d step %d: expire order diverged: ring %v model %v", trial, step, got, want)
					}
				}
			}
			if r.Len() != len(r.Entries())-deadCount(r.Entries()) {
				t.Fatalf("trial %d step %d: Len %d inconsistent with Entries", trial, step, r.Len())
			}
		}
		// The pending entries (what a snapshot would carry) must match the
		// model's surviving entries exactly, dead markers included.
		got, want := r.Entries(), m.entries
		if len(got) != len(want) {
			t.Fatalf("trial %d: Entries() len %d, model %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Entries()[%d] = %+v, model %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func deadCount(entries []Entry) int {
	n := 0
	for _, ent := range entries {
		if ent.Dead {
			n++
		}
	}
	return n
}

// opEdge maps a byte to one of 64 edges between {0..7} and {8..15}, a
// universe small enough that random ops keep re-pushing and killing the
// same edges.
func opEdge(b byte) graph.Edge {
	return graph.NewEdge(graph.VertexID(b&7), graph.VertexID(8+(b>>3)&7))
}

// runRingOps turns data into Push/Kill/ExpireOne calls, two bytes per op
// (the op, then its edge or expiry age), and applies each to r and to a
// ringModel. After every op, Has of every edge in the universe, Len and the
// pending entries must match the model, every expiry must pop the model's
// edges in its order, and the index must pass checkTable.
func runRingOps(t *testing.T, r *Ring, data []byte) {
	t.Helper()
	var m ringModel
	tick := int64(0)
	for k := 0; k+1 < len(data); k += 2 {
		op, arg := data[k]%4, data[k+1]
		switch op {
		case 0, 1:
			e := opEdge(arg)
			if m.has(e) {
				continue // the counter never double-pushes a live edge
			}
			tick++
			r.Push(e, tick)
			m.push(e, tick)
		case 2:
			e := opEdge(arg)
			if got, want := r.Kill(e), m.kill(e); got != want {
				t.Fatalf("op %d: Kill(%v) = %v, model %v", k/2, e, got, want)
			}
		default:
			cutoff := tick - int64(arg)
			want := m.expire(cutoff)
			for i := 0; ; i++ {
				e, ok := r.ExpireOne(cutoff)
				if ok != (i < len(want)) {
					t.Fatalf("op %d: ExpireOne(%d) call %d ok = %v, model pops %v", k/2, cutoff, i, ok, want)
				}
				if !ok {
					break
				}
				if e != want[i] {
					t.Fatalf("op %d: ExpireOne(%d) popped %v, model %v", k/2, cutoff, e, want[i])
				}
			}
		}
		live := 0
		for b := 0; b < 64; b++ {
			e := opEdge(byte(b))
			if r.Has(e) != m.has(e) {
				t.Fatalf("op %d: Has(%v) = %v, model %v", k/2, e, r.Has(e), m.has(e))
			}
			if m.has(e) {
				live++
			}
		}
		if r.Len() != live {
			t.Fatalf("op %d: Len %d, model %d", k/2, r.Len(), live)
		}
		checkTable(t, r)
		got := r.Entries()
		if len(got) != len(m.entries) {
			t.Fatalf("op %d: %d pending entries, model %d", k/2, len(got), len(m.entries))
		}
		for i := range got {
			if got[i] != m.entries[i] {
				t.Fatalf("op %d: Entries()[%d] = %+v, model %+v", k/2, i, got[i], m.entries[i])
			}
		}
	}
}

// FuzzRingOps runs arbitrary op histories against the linear-scan model. An
// odd first byte starts the ring's sequence numbers just below 2^32, so the
// index's 32-bit sequence fields wrap mid-history.
func FuzzRingOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 1, 9, 0, 18, 2, 9, 0, 9, 3, 1, 3, 0})
	f.Add([]byte{0, 0, 5, 0, 5, 1, 5, 2, 5, 3, 6, 2, 3, 1, 4, 2, 7, 0})
	seed := make([]byte, 600)
	rand.New(rand.NewSource(3)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		var r Ring
		if len(data) > 0 && data[0]&1 == 1 {
			r.head, r.tail = 1<<32-20, 1<<32-20
		}
		runRingOps(t, &r, data)
	})
}

// TestRingSequenceWrap32 starts a ring's sequence numbers just below 2^32
// and runs a long random history against the model: the index stores only
// the low 32 bits of each number, so after the wrap every live entry,
// numbered above 2^32, is found through a small stored value, across several
// ring growths.
func TestRingSequenceWrap32(t *testing.T) {
	const start = 1<<32 - 37
	data := make([]byte, 6000)
	rand.New(rand.NewSource(11)).Read(data)
	r := Ring{head: start, tail: start}
	runRingOps(t, &r, data)
	if r.tail <= 1<<32+200 || len(r.buf) < 8*minSlots {
		t.Fatalf("history too short: tail %d (start %d), buffer %d", r.tail, int64(start), len(r.buf))
	}
	checkTable(t, &r)
}

// TestRingGrowDeadStraddlingWrap fills a 16-entry buffer whose entries run
// from 2^32-8 to 2^32+7, so the buffer's wrap point and the 32-bit sequence
// wrap coincide, kills the four entries around that point, and grows the
// buffer with one more push. The dead bits must move with their entries,
// the live edges must keep their numbers, and expiry must skip exactly the
// killed entries.
func TestRingGrowDeadStraddlingWrap(t *testing.T) {
	const start = 1<<32 - 8
	r := Ring{head: start, tail: start}
	edge := func(i int) graph.Edge { return graph.NewEdge(graph.VertexID(i), graph.VertexID(i+100)) }
	for i := 0; i < minSlots; i++ {
		r.Push(edge(i), int64(i+1))
	}
	if len(r.buf) != minSlots || r.slot(r.head) != 8 {
		t.Fatalf("fixture: buffer %d, head slot %d; want %d, 8", len(r.buf), r.slot(r.head), minSlots)
	}
	killed := map[int]bool{6: true, 7: true, 8: true, 9: true} // numbers 2^32-2 .. 2^32+1
	for i := range killed {
		if !r.Kill(edge(i)) {
			t.Fatalf("Kill(%v) = false", edge(i))
		}
	}
	r.Push(edge(16), 17)
	if len(r.buf) != 2*minSlots {
		t.Fatalf("buffer %d after the 17th push, want %d", len(r.buf), 2*minSlots)
	}
	checkTable(t, &r)
	got := r.Entries()
	for i := 0; i <= 16; i++ {
		if want := (Entry{Edge: edge(i), At: int64(i + 1), Dead: killed[i]}); got[i] != want {
			t.Fatalf("Entries()[%d] = %+v, want %+v", i, got[i], want)
		}
		seq, ok := liveSeq(t, &r, edge(i))
		if ok == killed[i] || (ok && seq != start+int64(i)) {
			t.Fatalf("live entry of %v = %d,%v, want %d,%v", edge(i), seq, ok, start+int64(i), !killed[i])
		}
	}
	for i := 0; i <= 16; i++ {
		if killed[i] {
			continue
		}
		if e, ok := r.ExpireOne(17); !ok || e != edge(i) {
			t.Fatalf("ExpireOne popped %v,%v, want %v", e, ok, edge(i))
		}
	}
	if _, ok := r.ExpireOne(17); ok || r.Len() != 0 || r.head != r.tail {
		t.Fatalf("ring not empty after expiring everything: Len %d, head %d, tail %d", r.Len(), r.head, r.tail)
	}
}
