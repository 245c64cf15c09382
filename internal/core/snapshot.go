package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/window"
	"repro/internal/xrand"
)

// Snapshot is a serializable image of a WSD counter's state: everything
// needed to resume a long-running stream after a restart except the weight
// function, which is code and must be re-supplied at restore time (exactly
// like the configuration itself). The one exception is a learned policy:
// since a WSD-L weight function is fully determined by its parameters, the
// snapshot embeds them (Policy, version 4) and restore layers that are not
// handed an explicit weight function rebuild it from there.
//
// When the counter was built over an *xrand.Rand source, the snapshot also
// carries the RNG state, and a restored counter continues *bit-identically*
// to the uninterrupted run: same rank draws, same sample trajectory, same
// estimates. Counters built over other sources (e.g. *math/rand.Rand)
// snapshot everything but the randomness; restoring them requires a fresh
// source in the restore Config and resumes an exchangeable — but not
// identical — trajectory.
type Snapshot struct {
	Version     int          `json:"version"`
	M           int          `json:"m"`
	Pattern     pattern.Kind `json:"pattern"`
	TemporalAgg TemporalAgg  `json:"temporal_agg"`
	TauP        float64      `json:"tau_p"`
	TauQ        float64      `json:"tau_q"`
	Estimate    float64      `json:"estimate"`
	// Patterns and Estimates carry a multi-pattern counter's per-pattern
	// state (version 3), primary first; both are empty in single-pattern
	// snapshots. When present, Pattern and Estimate mirror the primary
	// entries (Patterns[0], Estimates[0]) so version-agnostic inspection
	// keeps working.
	Patterns  []pattern.Kind `json:"patterns,omitempty"`
	Estimates []float64      `json:"estimates,omitempty"`
	// Policy carries the active learned policy (version 4): the WSD-L actor
	// parameters behind the counter's weight function, nil for heuristic
	// weights. A restore that is not handed an explicit weight function can
	// rebuild this exact policy, which is what keeps snapshot→restore→resume
	// bit-identical under a learned weight function: the revived counter
	// draws the same weights as the uninterrupted one.
	Policy     *PolicyParams  `json:"policy,omitempty"`
	Insertions int64          `json:"insertions"`
	RngState   *uint64        `json:"rng_state,omitempty"` // xrand state; nil when the source is not checkpointable
	Items      []SnapshotItem `json:"items"`
	// Temporal mode state (version 5), all absent for whole-stream counters.
	// Window/Halflife record the counter's configured mode; WScale is decay
	// mode's forward weight scale e^(lambda * t) after the last
	// renormalization; Ring is the sliding window's pending edge ledger in
	// insertion order, dead entries included. Everything is in insertion-
	// event time, so the JSON round-trip is exact and a restored counter
	// resumes bit-identically.
	Window   int64               `json:"window,omitempty"`
	Halflife float64             `json:"halflife,omitempty"`
	WScale   float64             `json:"wscale,omitempty"`
	Ring     []SnapshotRingEntry `json:"ring,omitempty"`
}

// SnapshotRingEntry is one pending sliding-window ledger entry: the edge,
// its insertion tick, and whether a genuine stream deletion already
// consumed it.
type SnapshotRingEntry struct {
	U    graph.VertexID `json:"u"`
	V    graph.VertexID `json:"v"`
	At   int64          `json:"at"`
	Dead bool           `json:"dead,omitempty"`
}

// Multi reports whether the snapshot is in the multi-pattern shape (the
// version-3 patterns/estimates lists are present).
func (s *Snapshot) Multi() bool { return len(s.Patterns) > 0 }

// Counted returns the counted patterns in estimator order, primary first,
// whichever shape the snapshot has.
func (s *Snapshot) Counted() []pattern.Kind {
	if s.Multi() {
		return s.Patterns
	}
	return []pattern.Kind{s.Pattern}
}

// SnapshotItem is one sampled edge in a snapshot.
type SnapshotItem struct {
	U       graph.VertexID `json:"u"`
	V       graph.VertexID `json:"v"`
	Weight  float64        `json:"weight"`
	Rank    float64        `json:"rank"`
	Arrival int64          `json:"arrival"`
}

// snapshotVersion guards the wire format. Version 2 added rng_state; version
// 3 added the multi-pattern fields (patterns, estimates); version 4 added the
// active policy (policy); version 5 added the temporal mode state (window,
// halflife, wscale, ring). Snapshots of every prior version are still
// accepted by DecodeSnapshot and restore as whole-stream counters.
const snapshotVersion = 5

// stateful is the optional interface of checkpointable randomness sources
// (*xrand.Rand). Snapshot captures the state when the counter's source
// provides it.
type stateful interface {
	State() uint64
}

// Snapshot captures the counter's current state. The counter can keep
// processing events afterwards; the snapshot is an independent copy.
func (c *Counter) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:     snapshotVersion,
		M:           c.cfg.M,
		Pattern:     c.cfg.Pattern,
		TemporalAgg: c.cfg.TemporalAgg,
		TauP:        c.tauP,
		TauQ:        c.tauQ,
		Estimate:    c.Estimate(),
		Policy:      c.cfg.Policy.Clone(),
		Insertions:  c.insertions,
	}
	if len(c.pats) > 1 {
		s.Patterns = c.Patterns()
		s.Estimates = c.Estimates()
	}
	if src, ok := c.cfg.Rng.(stateful); ok {
		state := src.State()
		s.RngState = &state
	}
	for _, it := range c.res.Items() {
		s.Items = append(s.Items, SnapshotItem{
			U: it.Edge.U, V: it.Edge.V,
			Weight: it.Weight, Rank: it.Rank, Arrival: it.Arrival,
		})
	}
	s.Window = c.cfg.Temporal.Window
	s.Halflife = c.cfg.Temporal.Halflife
	if c.decayStep > 0 {
		s.WScale = c.wScale
	}
	if c.win != nil {
		for _, ent := range c.win.Entries() {
			s.Ring = append(s.Ring, SnapshotRingEntry{
				U: ent.Edge.U, V: ent.Edge.V, At: ent.At, Dead: ent.Dead,
			})
		}
	}
	return s
}

// Encode serializes the snapshot to JSON.
func (s *Snapshot) Encode() ([]byte, error) { return json.Marshal(s) }

// Checkpoint is Snapshot().Encode() in one call: the serialized form the
// ingestion layer (shard) stores when checkpointing a whole deployment.
func (c *Counter) Checkpoint() ([]byte, error) { return c.Snapshot().Encode() }

// DecodeSnapshot parses a snapshot produced by Encode and validates its
// internal consistency, so a decoded snapshot is always restorable (up to
// configuration mismatches checked by Restore).
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if s.Version < 1 || s.Version > snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d unsupported (want 1..%d)", s.Version, snapshotVersion)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the snapshot's internal consistency: a known pattern, a
// budget the estimator accepts, and an item set that fits it. Hand-built or
// corrupted snapshots fail here with an error instead of panicking deeper in
// the sampler, which is what lets a serving deployment reject a bad /restore
// body safely.
func (s *Snapshot) Validate() error {
	if !s.Pattern.Valid() {
		return fmt.Errorf("core: snapshot names unknown pattern %d", int(s.Pattern))
	}
	if s.M < s.Pattern.Size() {
		return fmt.Errorf("core: snapshot M=%d is below pattern size |H|=%d", s.M, s.Pattern.Size())
	}
	if s.Multi() {
		if len(s.Estimates) != len(s.Patterns) {
			return fmt.Errorf("core: snapshot holds %d estimates for %d patterns", len(s.Estimates), len(s.Patterns))
		}
		if s.Patterns[0] != s.Pattern {
			return fmt.Errorf("core: snapshot primary pattern %s does not match patterns[0]=%s", s.Pattern, s.Patterns[0])
		}
		if s.Estimates[0] != s.Estimate {
			return fmt.Errorf("core: snapshot primary estimate %v does not match estimates[0]=%v", s.Estimate, s.Estimates[0])
		}
		seen := make(map[pattern.Kind]bool, len(s.Patterns))
		for _, p := range s.Patterns {
			if !p.Valid() {
				return fmt.Errorf("core: snapshot names unknown pattern %d", int(p))
			}
			if seen[p] {
				return fmt.Errorf("core: snapshot lists pattern %s twice", p)
			}
			seen[p] = true
			if s.M < p.Size() {
				return fmt.Errorf("core: snapshot M=%d is below pattern size |H|=%d for %s", s.M, p.Size(), p)
			}
		}
	} else if len(s.Estimates) > 0 {
		return fmt.Errorf("core: snapshot holds %d estimates but no pattern list", len(s.Estimates))
	}
	if s.Policy != nil {
		if err := s.Policy.validate(); err != nil {
			return fmt.Errorf("core: snapshot policy: %w", err)
		}
	}
	if len(s.Items) > s.M {
		return fmt.Errorf("core: snapshot holds %d items, above M=%d", len(s.Items), s.M)
	}
	seen := make(map[graph.Edge]bool, len(s.Items))
	for _, it := range s.Items {
		e := graph.NewEdge(it.U, it.V)
		if e.IsLoop() || seen[e] {
			return fmt.Errorf("core: snapshot contains invalid or duplicate edge %v", e)
		}
		seen[e] = true
	}
	return s.validateTemporal(seen)
}

// validateTemporal checks the version-5 temporal fields: a well-formed mode,
// decay state only under decay, ring state only under a window, and a ring
// that is internally consistent (ordered ticks, nothing that should have
// expired, unique live edges, every sampled edge live — expiry removes edges
// from the reservoir and the ring together, so a reservoir edge missing from
// the ring would later dodge expiry and corrupt the estimate).
func (s *Snapshot) validateTemporal(items map[graph.Edge]bool) error {
	spec := window.Spec{Window: s.Window, Halflife: s.Halflife}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("core: snapshot temporal mode: %w", err)
	}
	if s.WScale < 0 || math.IsNaN(s.WScale) || math.IsInf(s.WScale, 0) {
		return fmt.Errorf("core: snapshot wscale %v invalid", s.WScale)
	}
	if s.WScale != 0 && spec.Halflife == 0 {
		return fmt.Errorf("core: snapshot carries wscale %v without a decay halflife", s.WScale)
	}
	if len(s.Ring) > 0 && spec.Window == 0 {
		return fmt.Errorf("core: snapshot carries %d ring entries without a window", len(s.Ring))
	}
	if spec.Window == 0 {
		return nil
	}
	// Expiry keeps at most Window entries pending, each at most Window-1
	// ticks old. A restored ring holding more would replay the excess as
	// deletions at the next insertion instead of where they aged out.
	if int64(len(s.Ring)) > spec.Window {
		return fmt.Errorf("core: snapshot ring holds %d pending entries, above window %d", len(s.Ring), spec.Window)
	}
	live := make(map[graph.Edge]bool, len(s.Ring))
	prev := int64(0)
	for _, ent := range s.Ring {
		e := graph.NewEdge(ent.U, ent.V)
		if e.IsLoop() {
			return fmt.Errorf("core: snapshot ring contains loop edge %v", e)
		}
		if ent.At < prev || ent.At > s.Insertions {
			return fmt.Errorf("core: snapshot ring tick %d out of order (prev %d, insertions %d)", ent.At, prev, s.Insertions)
		}
		prev = ent.At
		// 0 <= At <= Insertions here, so the age cannot overflow, even
		// against Window = math.MaxInt64.
		if s.Insertions-ent.At >= spec.Window {
			return fmt.Errorf("core: snapshot ring entry at tick %d expired by insertion %d (window %d)", ent.At, s.Insertions, spec.Window)
		}
		if !ent.Dead {
			if live[e] {
				return fmt.Errorf("core: snapshot ring lists live edge %v twice", e)
			}
			live[e] = true
		}
	}
	for e := range items {
		if !live[e] {
			return fmt.Errorf("core: sampled edge %v is not live in the snapshot ring", e)
		}
	}
	return nil
}

// Restore reconstructs a counter from a snapshot. cfg supplies the
// non-serializable parts: the weight function, and — only for snapshots
// without RNG state — a random source. When the snapshot carries RNG state
// (it was taken from a counter driven by *xrand.Rand), the source is revived
// from that state and cfg.Rng is ignored, so the restored counter continues
// bit-identically. The counted patterns come from the snapshot — single- and
// multi-pattern shapes both restore. cfg's M, Secondary and Temporal must
// match the snapshot (zero values default to it), since a mismatch would
// silently break the estimator's probability bookkeeping. When cfg.Secondary
// is given, cfg.Pattern must match too: the whole pattern list is checked.
func Restore(s *Snapshot, cfg Config) (*Counter, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	snapPats := s.Counted()
	if len(cfg.Secondary) > 0 && !slices.Equal(cfg.patterns(), snapPats) {
		return nil, fmt.Errorf("core: restore patterns %v do not match snapshot %v", cfg.patterns(), snapPats)
	}
	cfg.Secondary = snapPats[1:]
	if cfg.M == 0 {
		cfg.M = s.M
	}
	if cfg.M != s.M {
		return nil, fmt.Errorf("core: restore M=%d does not match snapshot M=%d", cfg.M, s.M)
	}
	cfg.Pattern = s.Pattern
	cfg.TemporalAgg = s.TemporalAgg
	snapSpec := window.Spec{Window: s.Window, Halflife: s.Halflife}
	if cfg.Temporal.IsZero() {
		cfg.Temporal = snapSpec
	} else if cfg.Temporal != snapSpec {
		return nil, fmt.Errorf("core: restore temporal mode %v does not match snapshot %v", cfg.Temporal, snapSpec)
	}
	if s.RngState != nil {
		cfg.Rng = xrand.FromState(*s.RngState)
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.tauP = s.TauP
	c.tauQ = s.TauQ
	c.pats[0].estimate = s.Estimate
	if s.Multi() {
		for i := range c.pats {
			c.pats[i].estimate = s.Estimates[i]
		}
	}
	c.insertions = s.Insertions
	for _, it := range s.Items {
		c.res.PushValue(graph.NewEdge(it.U, it.V), it.Weight, it.Rank, it.Arrival)
	}
	if s.WScale > 0 {
		c.wScale = s.WScale
	}
	if c.win != nil {
		// Replaying Push/Kill in ledger order reproduces the exact ring
		// state, dead markers included (a dead entry is one whose edge a
		// later deletion consumed).
		for _, ent := range s.Ring {
			e := graph.NewEdge(ent.U, ent.V)
			c.win.Push(e, ent.At)
			if ent.Dead {
				c.win.Kill(e)
			}
		}
	}
	return c, nil
}
