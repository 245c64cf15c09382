// Package window defines the temporal-estimation modes the counter stack
// serves on top of whole-stream WSD sampling: sliding windows over the last
// W insertion events and exponential decay with a configured halflife.
//
// Time here is insertion-event time: the k-th surviving edge insertion is
// t = k. The stream codecs carry no wall-clock timestamps (stream.Event is
// {Op, Edge}), and the whole counter stack — reservoir arrival indexes,
// snapshot positions, WAL offsets — is already indexed by event position, so
// event time is the one clock every layer agrees on deterministically.
// "The last hour" translates to "the last W insertions" at the producer's
// known event rate; deletions carry no tick of their own (a deletion refers
// to mass inserted at some earlier tick, it does not age the stream).
//
// The two modes are mutually exclusive:
//
//   - Window W keeps estimates over exactly the last W insertion events by
//     expiring aged edges through the counter's TRIEST-FD-style deletion
//     path. Ring is the supporting structure: a FIFO of live edges in
//     insertion order with O(1) membership through a seeded flat hash table.
//   - Halflife h decays every sampled contribution by 2^(-Δt/h): the
//     estimate is multiplied by e^(-λ) (λ = ln2/h) on each insertion tick
//     before new mass is added, and sampling weights are scaled by e^(+λt)
//     so that recent edges out-rank old ones by exactly the decay ratio.
//
// The zero Spec is the whole-stream mode every prior version shipped;
// Window = math.MaxInt64 and Halflife = +Inf degenerate to it bit-for-bit
// (nothing ever expires; λ = 0 makes every decay factor exactly 1).
package window

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/graph"
)

// Spec selects a temporal estimation mode. The zero value means whole-stream
// estimation (no window, no decay). At most one of Window and Halflife may be
// set; construct with New or ParseSpec to get that validated.
type Spec struct {
	// Window, when positive, restricts estimation to the last Window
	// insertion events. An edge inserted at tick t expires at tick t+Window.
	Window int64
	// Halflife, when positive, applies exponential decay: a contribution
	// aged Δt insertion ticks is weighted 2^(-Δt/Halflife).
	Halflife float64
}

// New validates and normalizes a (window, halflife) pair into a Spec.
// halflife = +Inf normalizes to 0 (no decay): λ = ln2/∞ is exactly zero, so
// the caller asked for the whole-stream counter by a different name.
func New(windowEvents int64, halflife float64) (Spec, error) {
	if math.IsInf(halflife, 1) {
		halflife = 0
	}
	s := Spec{Window: windowEvents, Halflife: halflife}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate reports whether the Spec is well-formed: non-negative fields,
// finite halflife, and at most one mode selected.
func (s Spec) Validate() error {
	if s.Window < 0 {
		return fmt.Errorf("window: window must be positive, got %d", s.Window)
	}
	if s.Halflife < 0 || math.IsNaN(s.Halflife) || math.IsInf(s.Halflife, 1) {
		return fmt.Errorf("window: halflife must be positive and finite, got %v", s.Halflife)
	}
	if s.Window > 0 && s.Halflife > 0 {
		return fmt.Errorf("window: sliding window and decay are mutually exclusive (window %d, halflife %v)", s.Window, s.Halflife)
	}
	return nil
}

// IsZero reports whether the Spec selects whole-stream estimation.
func (s Spec) IsZero() bool { return s.Window == 0 && s.Halflife == 0 }

// Lambda returns the decay rate ln2/Halflife, or 0 when no decay is
// configured.
func (s Spec) Lambda() float64 {
	if s.Halflife <= 0 {
		return 0
	}
	return math.Ln2 / s.Halflife
}

// String renders the mode for error messages and health payloads.
func (s Spec) String() string {
	switch {
	case s.Window > 0:
		return fmt.Sprintf("window=%d", s.Window)
	case s.Halflife > 0:
		return fmt.Sprintf("halflife=%v", s.Halflife)
	}
	return "whole-stream"
}

// ParseSpec builds a Spec from the string forms shared by the wsdserve flags
// and the /estimate query parameters. Empty strings and "inf" mean "not set"
// for both fields (?window=inf asserts the whole-stream mode explicitly).
func ParseSpec(windowStr, halflifeStr string) (Spec, error) {
	var w int64
	switch windowStr {
	case "", "inf":
	default:
		v, err := strconv.ParseInt(windowStr, 10, 64)
		if err != nil || v <= 0 {
			return Spec{}, fmt.Errorf("window: bad window %q: want a positive event count or \"inf\"", windowStr)
		}
		w = v
	}
	var h float64
	switch halflifeStr {
	case "", "inf":
	default:
		v, err := strconv.ParseFloat(halflifeStr, 64)
		if err != nil || v <= 0 || math.IsInf(v, 1) || math.IsNaN(v) {
			return Spec{}, fmt.Errorf("window: bad halflife %q: want a positive event count or \"inf\"", halflifeStr)
		}
		h = v
	}
	return New(w, h)
}

// Entry is one ring slot: an edge, the insertion tick it arrived at, and
// whether a genuine stream deletion already removed it (expiry then skips
// it — its mass left the estimate when the deletion was applied).
type Entry struct {
	Edge graph.Edge
	At   int64
	Dead bool
}

// Ring is the sliding window's edge ledger: a FIFO of insertions in tick
// order with O(1) live-edge membership. The counter pushes every surviving
// insertion (sampled or not — deletion estimator updates do not require the
// deleted edge to be in the reservoir, so expiry must replay every aged
// edge), pops aged entries from the head, and marks entries dead when a
// genuine deletion consumes them first.
//
// Each pushed entry takes the next absolute sequence number. The pending
// entries, numbers head..tail-1, live in a power-of-two circular buffer at
// slot seq & (len(buf)-1), with a dead bit per slot beside it. A full buffer
// doubles, so expiry only advances head and nothing is ever compacted or
// renumbered. The index keeps the low 32 bits of a live entry's number,
// which name its slot as long as the buffer holds at most 2^32 entries.
//
// The zero Ring is empty and ready to use.
type Ring struct {
	buf        []ringEntry
	dead       []uint64  // bit k is set once the entry in slot k is dead
	head, tail int64     // the pending entries are numbers [head, tail)
	idx        edgeTable // live entries only
}

// ringEntry is one buffer slot: an edge and the tick it was inserted at.
type ringEntry struct {
	edge graph.Edge
	at   int64
}

// Len returns the number of live (non-dead, non-expired) edges.
func (r *Ring) Len() int { return r.idx.n }

// Has reports whether e is live in the window.
func (r *Ring) Has(e graph.Edge) bool {
	_, _, _, ok := r.probe(e)
	return ok
}

// slot returns the buffer slot of entry number seq.
func (r *Ring) slot(seq int64) int64 { return seq & int64(len(r.buf)-1) }

// deadBit returns the dead mask's word holding slot k's bit, and the bit.
func (r *Ring) deadBit(k int64) (*uint64, uint64) { return &r.dead[k>>6], 1 << (k & 63) }

func (r *Ring) isDead(k int64) bool {
	w, bit := r.deadBit(k)
	return *w&bit != 0
}

// probe walks e's probe run in the index. It returns e's tag and either the
// index slot holding e's live entry with that entry's buffer slot (live), or
// the empty index slot that ends the run.
func (r *Ring) probe(e graph.Edge) (tag uint32, i uint64, k int64, live bool) {
	t := &r.idx
	if t.slots == nil {
		return 0, 0, 0, false
	}
	tag = t.tag(e)
	for i = t.home(tag); t.slots[i] != 0; i = (i + 1) & t.mask {
		if s := t.slots[i]; uint32(s>>32) == tag {
			if k = r.slot(int64(uint32(s))); r.buf[k].edge == e {
				return tag, i, k, true
			}
		}
	}
	return tag, i, 0, false
}

// Push records the insertion of e at tick at. Ticks must be non-decreasing.
// If e is already live (the caller should have checked Has first), the old
// entry is marked dead so membership stays single-valued.
func (r *Ring) Push(e graph.Edge, at int64) {
	if r.tail-r.head == int64(len(r.buf)) {
		r.grow()
	}
	if 2*(r.idx.n+1) > len(r.idx.slots) {
		r.idx.grow()
	}
	tag, i, old, live := r.probe(e)
	if live {
		w, bit := r.deadBit(old)
		*w |= bit
	} else {
		r.idx.n++
	}
	r.idx.slots[i] = uint64(tag)<<32 | uint64(uint32(r.tail))
	k := r.slot(r.tail)
	r.buf[k] = ringEntry{edge: e, at: at}
	w, bit := r.deadBit(k)
	*w &^= bit
	r.tail++
}

// grow doubles the buffer (allocating the first one on first use) and moves
// every pending entry, with its dead bit, to its slot in the new buffer.
func (r *Ring) grow() {
	if uint64(len(r.buf)) >= 1<<32 {
		panic("window: ring exceeds 2^32 pending entries")
	}
	n := max(2*len(r.buf), minSlots)
	old := *r
	r.buf = make([]ringEntry, n)
	r.dead = make([]uint64, (n+63)/64)
	for seq := r.head; seq < r.tail; seq++ {
		k := r.slot(seq)
		r.buf[k] = old.buf[old.slot(seq)]
		if old.isDead(old.slot(seq)) {
			w, bit := r.deadBit(k)
			*w |= bit
		}
	}
}

// Kill marks the live entry for e dead (a genuine stream deletion consumed
// it) and reports whether e was live. A false return means the deletion
// refers to an edge that already expired or was never inserted; the caller
// must then ignore the deletion entirely, or it would subtract instances the
// windowed estimate no longer counts.
func (r *Ring) Kill(e graph.Edge) bool {
	_, i, k, live := r.probe(e)
	if !live {
		return false
	}
	r.idx.deleteAt(i)
	w, bit := r.deadBit(k)
	*w |= bit
	return true
}

// ExpireOne pops the oldest entry if it has aged out (At <= cutoff),
// returning its edge. Dead entries are discarded silently (their mass left
// the estimate when the genuine deletion was applied) and the scan continues
// to the next head. The boolean is false when nothing is left to expire.
func (r *Ring) ExpireOne(cutoff int64) (graph.Edge, bool) {
	for ; r.head < r.tail; r.head++ {
		k := r.slot(r.head)
		if r.buf[k].at > cutoff {
			break
		}
		if !r.isDead(k) {
			_, i, _, _ := r.probe(r.buf[k].edge)
			r.idx.deleteAt(i)
			r.head++
			return r.buf[k].edge, true
		}
	}
	return graph.Edge{}, false
}

// Entries returns the pending (non-expired) entries oldest-first, dead ones
// included — exactly the state a snapshot must carry to resume
// bit-identically.
func (r *Ring) Entries() []Entry {
	out := make([]Entry, 0, r.tail-r.head)
	for seq := r.head; seq < r.tail; seq++ {
		k := r.slot(seq)
		out = append(out, Entry{Edge: r.buf[k].edge, At: r.buf[k].at, Dead: r.isDead(k)})
	}
	return out
}
