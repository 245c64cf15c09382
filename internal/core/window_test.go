package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/stream"
	"repro/internal/window"
	"repro/internal/xrand"
)

// temporalTestStream builds a feasible random insert/delete history.
func temporalTestStream(seed int64, n, steps int) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	var s stream.Stream
	present := map[graph.Edge]bool{}
	var edges []graph.Edge
	for i := 0; i < steps; i++ {
		if len(edges) > 0 && rng.Float64() < 0.25 {
			j := rng.Intn(len(edges))
			e := edges[j]
			edges[j] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			delete(present, e)
			s = append(s, stream.Event{Op: stream.Delete, Edge: e})
			continue
		}
		e := graph.NewEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		if e.IsLoop() || present[e] {
			continue
		}
		present[e] = true
		edges = append(edges, e)
		s = append(s, stream.Event{Op: stream.Insert, Edge: e})
	}
	return s
}

// TestWindowOverProvisionedIsExact pins the window machinery without
// sampling noise: with the reservoir holding every live edge, tau_q stays 0
// and every contribution is exactly 1 per instance, so the windowed estimate
// must equal the windowed exact oracle at every step — any divergence is an
// expiry bug (wrong cutoff, double-subtraction, phantom deletion), not
// variance.
func TestWindowOverProvisionedIsExact(t *testing.T) {
	for _, k := range []pattern.Kind{pattern.Wedge, pattern.Triangle, pattern.FourClique} {
		for _, w := range []int64{15, 40, 120} {
			s := temporalTestStream(31, 13, 500)
			c, err := New(Config{
				M: 4096, Pattern: k, Rng: xrand.New(1), SkipTemporal: true,
				Temporal: window.Spec{Window: w},
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle := exact.NewWindow(w, k)
			for i, ev := range s {
				c.Process(ev)
				oracle.Apply(ev)
				if got, want := c.Estimate(), float64(oracle.Count(k)); got != want {
					t.Fatalf("%s window %d step %d: estimate %v, exact windowed count %v", k, w, i, got, want)
				}
			}
		}
	}
}

// TestDecayOverProvisionedIsExact is the decay analogue: with every edge
// sampled, the decayed estimate and the decayed oracle apply the same
// multiply-then-add sequence and must agree bit for bit.
func TestDecayOverProvisionedIsExact(t *testing.T) {
	for _, k := range []pattern.Kind{pattern.Wedge, pattern.Triangle} {
		for _, half := range []float64{7.5, 60, 1000} {
			s := temporalTestStream(77, 13, 500)
			c, err := New(Config{
				M: 4096, Pattern: k, Rng: xrand.New(1), SkipTemporal: true,
				Temporal: window.Spec{Halflife: half},
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle := exact.NewDecay(half, k)
			for i, ev := range s {
				c.Process(ev)
				oracle.Apply(ev)
				if got, want := c.Estimate(), oracle.Value(k); got != want {
					t.Fatalf("%s halflife %v step %d: estimate %v, decayed oracle %v", k, half, i, got, want)
				}
			}
		}
	}
}

// temporalKinds is the pattern set of the multi-pattern temporal tests:
// a clique primary on the CliqueSink route, a second clique kind sharing its
// common-neighborhood collection, and a wedge on the materializing route.
var temporalKinds = []pattern.Kind{pattern.Triangle, pattern.Wedge, pattern.FourClique}

// TestWindowMultiPatternOverProvisionedIsExact extends the over-provisioned
// window check to one counter over several patterns: expiry replays each
// aged edge through the shared deletion path once, and every pattern's
// estimate must equal its windowed exact count at every step.
func TestWindowMultiPatternOverProvisionedIsExact(t *testing.T) {
	for _, w := range []int64{15, 40, 120} {
		s := temporalTestStream(31, 13, 500)
		c, err := New(Config{
			M: 4096, Pattern: temporalKinds[0], Secondary: temporalKinds[1:],
			Rng: xrand.New(1), SkipTemporal: true, Temporal: window.Spec{Window: w},
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := exact.NewWindow(w, temporalKinds...)
		for i, ev := range s {
			c.Process(ev)
			oracle.Apply(ev)
			for _, k := range temporalKinds {
				got, _ := c.EstimateOf(k)
				if want := float64(oracle.Count(k)); got != want {
					t.Fatalf("%s window %d step %d: estimate %v, exact windowed count %v", k, w, i, got, want)
				}
			}
		}
	}
}

// TestDecayMultiPatternOverProvisionedIsExact is the decay analogue: every
// pattern's estimate decays by the same per-insertion factor as the decayed
// oracle and must agree with it bit for bit.
func TestDecayMultiPatternOverProvisionedIsExact(t *testing.T) {
	for _, half := range []float64{7.5, 60, 1000} {
		s := temporalTestStream(77, 13, 500)
		c, err := New(Config{
			M: 4096, Pattern: temporalKinds[0], Secondary: temporalKinds[1:],
			Rng: xrand.New(1), SkipTemporal: true, Temporal: window.Spec{Halflife: half},
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := exact.NewDecay(half, temporalKinds...)
		for i, ev := range s {
			c.Process(ev)
			oracle.Apply(ev)
			for _, k := range temporalKinds {
				got, _ := c.EstimateOf(k)
				if want := oracle.Value(k); got != want {
					t.Fatalf("%s halflife %v step %d: estimate %v, decayed oracle %v", k, half, i, got, want)
				}
			}
		}
	}
}

// TestTemporalModesMutuallyExclusive checks config validation.
func TestTemporalModesMutuallyExclusive(t *testing.T) {
	_, err := New(Config{
		M: 10, Pattern: pattern.Triangle, Rng: xrand.New(1),
		Temporal: window.Spec{Window: 5, Halflife: 2},
	})
	if err == nil {
		t.Fatal("window+halflife config accepted, want error")
	}
}

// resumeCheck snapshots c mid-stream, restores it, drives both over the
// remaining events, and demands bit-identical estimates, thresholds, and
// re-encoded snapshots.
func resumeCheck(t *testing.T, cfg Config, s stream.Stream, splitAt int) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s[:splitAt] {
		c.Process(ev)
	}
	blob, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(snap, Config{Weight: cfg.Weight, SkipTemporal: cfg.SkipTemporal})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s[splitAt:] {
		c.Process(ev)
		r.Process(ev)
	}
	if c.Estimate() != r.Estimate() {
		t.Fatalf("restored estimate %v diverged from uninterrupted %v", r.Estimate(), c.Estimate())
	}
	cp, cq := c.Thresholds()
	rp, rq := r.Thresholds()
	if cp != rp || cq != rq {
		t.Fatalf("restored thresholds (%v,%v) diverged from (%v,%v)", rp, rq, cp, cq)
	}
	cb, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(rb) {
		t.Fatalf("final snapshots differ:\n%s\nvs\n%s", cb, rb)
	}
}

// TestWindowSnapshotResumeBitIdentical covers snapshot v5's ring state: a
// restored windowed counter must expire the same edges at the same ticks.
func TestWindowSnapshotResumeBitIdentical(t *testing.T) {
	s := temporalTestStream(5, 14, 600)
	for _, splitAt := range []int{37, len(s) / 2, len(s) - 1} {
		resumeCheck(t, Config{
			M: 60, Pattern: pattern.Triangle, Rng: xrand.New(3), SkipTemporal: true,
			Temporal: window.Spec{Window: 50},
		}, s, splitAt)
	}
}

// TestDecaySnapshotResumeBitIdentical covers snapshot v5's decay state,
// with a halflife small enough that the weight scale crosses the 1e120
// renormalization threshold mid-stream: the restored counter must
// renormalize at the same ticks and keep drawing identical ranks.
func TestDecaySnapshotResumeBitIdentical(t *testing.T) {
	s := temporalTestStream(6, 14, 900)
	for _, half := range []float64{0.5, 40} {
		for _, splitAt := range []int{37, len(s) / 2, len(s) - 1} {
			resumeCheck(t, Config{
				M: 60, Pattern: pattern.Triangle, Rng: xrand.New(3), SkipTemporal: true,
				Temporal: window.Spec{Halflife: half},
			}, s, splitAt)
		}
	}
}

// TestDecayRenormalizationTriggers makes sure the small-halflife cases above
// actually cross the threshold (a silent failure to renormalize would
// eventually produce +Inf ranks instead of a test failure here).
func TestDecayRenormalizationTriggers(t *testing.T) {
	c, err := New(Config{
		M: 60, Pattern: pattern.Triangle, Rng: xrand.New(3), SkipTemporal: true,
		Temporal: window.Spec{Halflife: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range temporalTestStream(6, 14, 900) {
		c.Process(ev)
		if c.wScale > wScaleRenorm*math.Exp(window.Spec{Halflife: 0.5}.Lambda()) {
			t.Fatalf("wScale %v above the renormalization ceiling", c.wScale)
		}
	}
	if c.insertions < 250 {
		t.Fatalf("stream too short to cross the threshold (%d insertions)", c.insertions)
	}
	// 2^(insertions/0.5) vastly exceeds 1e120, so at least one
	// renormalization must have happened, leaving wScale far below the raw
	// product.
	if math.IsInf(c.wScale, 0) || c.wScale > 1e125 {
		t.Fatalf("renormalization never ran: wScale %v", c.wScale)
	}
	if est := c.Estimate(); math.IsNaN(est) || math.IsInf(est, 0) {
		t.Fatalf("estimate degenerated to %v", est)
	}
}

// TestRestoreV4SnapshotStillWorks pins backward compatibility explicitly: a
// hand-written version-4 blob (no temporal fields) must decode, restore as a
// whole-stream counter, and keep processing.
func TestRestoreV4SnapshotStillWorks(t *testing.T) {
	blob := []byte(`{"version":4,"m":10,"pattern":1,"temporal_agg":0,` +
		`"tau_p":0,"tau_q":0,"estimate":2,"insertions":3,"rng_state":42,` +
		`"items":[{"u":1,"v":2,"weight":1,"rank":3.5,"arrival":1},` +
		`{"u":2,"v":3,"weight":1,"rank":2.5,"arrival":2},` +
		`{"u":1,"v":3,"weight":1,"rank":4.5,"arrival":3}]}`)
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Window != 0 || snap.Halflife != 0 || snap.WScale != 0 || len(snap.Ring) != 0 {
		t.Fatalf("v4 blob decoded with temporal state: %+v", snap)
	}
	c, err := Restore(snap, Config{SkipTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.win != nil || c.decayStep != 0 || c.wScale != 1 {
		t.Fatalf("v4 restore built a temporal counter: win=%v decayStep=%v wScale=%v", c.win, c.decayStep, c.wScale)
	}
	c.Process(stream.Event{Op: stream.Insert, Edge: graph.NewEdge(3, 4)})
	if math.IsNaN(c.Estimate()) {
		t.Fatal("restored counter produced NaN")
	}
}

// TestRestoreTemporalMismatch: an explicit temporal config must match the
// snapshot's mode; the zero config adopts it.
func TestRestoreTemporalMismatch(t *testing.T) {
	c, err := New(Config{
		M: 20, Pattern: pattern.Triangle, Rng: xrand.New(1), SkipTemporal: true,
		Temporal: window.Spec{Window: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range temporalTestStream(8, 10, 80) {
		c.Process(ev)
	}
	blob, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 5 || snap.Window != 30 {
		t.Fatalf("windowed snapshot header wrong: version %d window %d", snap.Version, snap.Window)
	}
	if _, err := Restore(snap, Config{SkipTemporal: true, Temporal: window.Spec{Window: 31}}); err == nil {
		t.Fatal("mismatched window accepted")
	}
	if _, err := Restore(snap, Config{SkipTemporal: true, Temporal: window.Spec{Halflife: 2}}); err == nil {
		t.Fatal("halflife restore of a windowed snapshot accepted")
	}
	r, err := Restore(snap, Config{SkipTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.win == nil || r.cfg.Temporal.Window != 30 {
		t.Fatalf("zero-config restore did not adopt the snapshot window: %+v", r.cfg.Temporal)
	}
}

// TestSnapshotValidateTemporal covers the v5 validation rules on hand-built
// blobs.
func TestSnapshotValidateTemporal(t *testing.T) {
	base := func() *Snapshot {
		return &Snapshot{
			Version: 5, M: 10, Pattern: pattern.Triangle, Insertions: 4,
			Items: []SnapshotItem{{U: 1, V: 2, Weight: 1, Rank: 2, Arrival: 1}},
			Ring: []SnapshotRingEntry{
				{U: 1, V: 2, At: 1},
				{U: 2, V: 3, At: 2, Dead: true},
				{U: 3, V: 4, At: 4},
			},
			Window: 30,
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid windowed snapshot rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"both-modes", func(s *Snapshot) { s.Halflife = 2 }},
		{"ring-without-window", func(s *Snapshot) { s.Window = 0 }},
		{"wscale-without-halflife", func(s *Snapshot) { s.WScale = 2 }},
		{"negative-wscale", func(s *Snapshot) { s.Window = 0; s.Ring = nil; s.Halflife = 2; s.WScale = -1 }},
		{"ring-out-of-order", func(s *Snapshot) { s.Ring[2].At = 1 }},
		{"ring-tick-beyond-insertions", func(s *Snapshot) { s.Ring[2].At = 9 }},
		{"ring-loop-edge", func(s *Snapshot) { s.Ring[2].U, s.Ring[2].V = 5, 5 }},
		{"ring-duplicate-live", func(s *Snapshot) { s.Ring[2].U, s.Ring[2].V = 1, 2 }},
		{"sampled-edge-not-live", func(s *Snapshot) { s.Ring[0].Dead = true }},
	}
	for _, c := range cases {
		s := base()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid snapshot accepted", c.name)
		}
	}
	// The JSON round trip preserves every temporal field exactly.
	blob, err := base().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Window != 30 || len(back.Ring) != 3 || back.Ring[1].Dead != true {
		t.Fatalf("temporal fields lost in round trip: %+v", back)
	}
}
