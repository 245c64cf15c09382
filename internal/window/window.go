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
// Entries carry absolute sequence numbers — entries[i] is number base+i —
// and the membership index maps each live edge to its number, so dropping
// the expired prefix only advances base and never rewrites the index.
//
// The zero Ring is empty and ready to use.
type Ring struct {
	entries []Entry
	head    int
	base    int64     // sequence number of entries[0]
	idx     edgeTable // live entries only
}

// Len returns the number of live (non-dead, non-expired) edges.
func (r *Ring) Len() int { return r.idx.Len() }

// Has reports whether e is live in the window.
func (r *Ring) Has(e graph.Edge) bool {
	_, ok := r.idx.Get(e)
	return ok
}

// Push records the insertion of e at tick at. Ticks must be non-decreasing.
// If e is already live (the caller should have checked Has first), the old
// entry is marked dead so membership stays single-valued.
func (r *Ring) Push(e graph.Edge, at int64) {
	if r.head > 0 && r.head*2 >= len(r.entries) {
		r.compact()
	}
	if old, ok := r.idx.Put(e, r.base+int64(len(r.entries))); ok {
		r.entries[old-r.base].Dead = true
	}
	r.entries = append(r.entries, Entry{Edge: e, At: at})
}

// compact drops the expired prefix so the backing slice stays proportional
// to the pending entry count over arbitrarily long streams. Amortized O(1)
// per Push: it only runs when at least half the slice is expired.
func (r *Ring) compact() {
	n := copy(r.entries, r.entries[r.head:])
	r.entries = r.entries[:n]
	r.base += int64(r.head)
	r.head = 0
}

// Kill marks the live entry for e dead (a genuine stream deletion consumed
// it) and reports whether e was live. A false return means the deletion
// refers to an edge that already expired or was never inserted; the caller
// must then ignore the deletion entirely, or it would subtract instances the
// windowed estimate no longer counts.
func (r *Ring) Kill(e graph.Edge) bool {
	seq, ok := r.idx.Delete(e)
	if !ok {
		return false
	}
	r.entries[seq-r.base].Dead = true
	return true
}

// ExpireOne pops the oldest entry if it has aged out (At <= cutoff),
// returning its edge. Dead entries are discarded silently (their mass left
// the estimate when the genuine deletion was applied) and the scan continues
// to the next head. The boolean is false when nothing is left to expire.
func (r *Ring) ExpireOne(cutoff int64) (graph.Edge, bool) {
	for r.head < len(r.entries) {
		ent := r.entries[r.head]
		if ent.At > cutoff {
			break
		}
		r.head++
		if ent.Dead {
			continue
		}
		r.idx.Delete(ent.Edge)
		return ent.Edge, true
	}
	if r.head > 0 && r.head == len(r.entries) {
		r.entries = r.entries[:0]
		r.base += int64(r.head)
		r.head = 0
	}
	return graph.Edge{}, false
}

// Entries returns the pending (non-expired) entries oldest-first, dead ones
// included — exactly the state a snapshot must carry to resume
// bit-identically.
func (r *Ring) Entries() []Entry {
	out := make([]Entry, len(r.entries)-r.head)
	copy(out, r.entries[r.head:])
	return out
}
