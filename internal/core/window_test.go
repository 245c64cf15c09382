package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
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
	cp, cq := c.tauP, c.tauQ
	rp, rq := r.tauP, r.tauQ
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

// TestDecodeSnapshotRejectsStaleRing: a counter expires every entry aged
// Window ticks before it pushes the next one, so a blob whose ring holds an
// entry already due to expire, or more pending entries than the window, was
// never written by a counter and must not decode. A whole-stream-sized
// window (math.MaxInt64) must not overflow the age check.
func TestDecodeSnapshotRejectsStaleRing(t *testing.T) {
	decode := func(s *Snapshot) error {
		blob, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeSnapshot(blob)
		return err
	}
	snap := func(window int64, ticks ...int64) *Snapshot {
		s := &Snapshot{
			Version: 5, M: 10, Pattern: pattern.Triangle, Insertions: 4, Window: window,
			Items: []SnapshotItem{{U: 1, V: 2, Weight: 1, Rank: 2, Arrival: 1}},
		}
		for i, at := range ticks {
			s.Ring = append(s.Ring, SnapshotRingEntry{U: 1, V: graph.VertexID(2 + i), At: at, Dead: i > 0})
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		s      *Snapshot
		reject bool
	}{
		{"oldest-entry-still-pending", snap(4, 1, 2, 4), false},
		{"entry-due-to-expire", snap(3, 1, 2, 4), true},
		{"more-entries-than-window", snap(2, 4, 4, 4), true},
		{"window-full", snap(3, 4, 4, 4), false},
		{"max-window", snap(math.MaxInt64, 1, 2, 4), false},
	} {
		if err := decode(tc.s); (err != nil) != tc.reject {
			t.Errorf("%s: DecodeSnapshot err = %v, want rejected %v", tc.name, err, tc.reject)
		}
	}
}

// ringChurnStream builds a feasible windowed history for a window of w
// insertions: fresh random edges over a small vertex set, a genuine deletion
// of the edge inserted three ticks earlier on every fifth step (still live in
// the window, so the ring kills it), a deletion of an edge that aged out of
// the window on every seventh step (the ring ignores it), and the
// re-insertion of each killed edge four steps after its deletion (so the
// ring holds a dead entry and a live entry for the same edge).
func ringChurnStream(seed int64, n, steps int, w int64) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	var s stream.Stream
	present := map[graph.Edge]bool{}
	insertedAt := map[int64]graph.Edge{}
	type repush struct {
		e   graph.Edge
		due int
	}
	var queue []repush
	tick := int64(0)
	del := func(e graph.Edge) {
		delete(present, e)
		s = append(s, stream.Event{Op: stream.Delete, Edge: e})
	}
	for step := 0; step < steps; step++ {
		e := graph.NewEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		if len(queue) > 0 && queue[0].due <= step {
			e = queue[0].e
			queue = queue[1:]
		}
		if !e.IsLoop() && !present[e] {
			present[e] = true
			tick++
			insertedAt[tick] = e
			s = append(s, stream.Event{Op: stream.Insert, Edge: e})
		}
		if old, ok := insertedAt[tick-3]; ok && step%5 == 0 && present[old] {
			del(old)
			queue = append(queue, repush{old, step + 4})
		}
		if old, ok := insertedAt[tick-w-10]; ok && step%7 == 0 && present[old] {
			del(old)
		}
	}
	return s
}

// TestWindowCheckpointPinnedBytes pins a windowed counter's Checkpoint bytes
// (length and sha256) at three points of a churn history that kills live
// edges, re-inserts killed ones and expires the rest. With a 40-insertion
// window the ring grows twice from its first allocation and then wraps
// several times, so the pending entries a snapshot carries (order, ticks and
// dead markers) are pinned across the ring's growth and wrap-around. A
// restored counter must checkpoint to the same bytes.
func TestWindowCheckpointPinnedBytes(t *testing.T) {
	const w = 40
	s := ringChurnStream(41, 24, 560, w)
	c, err := New(Config{
		M: 24, Pattern: pattern.Triangle, Rng: xrand.New(11), SkipTemporal: true,
		Temporal: window.Spec{Window: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, tc := range []struct {
		events, bytes int
		sha256        string
	}{
		{60, 2791, "670615505989f4946f2b8f099d720bbf73e5a6c433db7ce2ae7c5b50dc16b555"},
		{250, 2293, "58e866c6eb123f8bece0ee97bf83a93709026898619a5f41104f683d1ee1b70c"},
		{len(s), 2240, "f8c17b78ac7ed23562a0adadb82ead17350c043fd2bcdf3ef73296813f018574"},
	} {
		for _, ev := range s[done:tc.events] {
			c.Process(ev)
		}
		done = tc.events
		blob, err := c.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); len(blob) != tc.bytes || got != tc.sha256 {
			t.Errorf("after %d events: %d bytes sha256 %s, want %d bytes sha256 %s", tc.events, len(blob), got, tc.bytes, tc.sha256)
		}
		snap, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(snap, Config{SkipTemporal: true})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := r.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if string(rb) != string(blob) {
			t.Errorf("after %d events: restored counter checkpoints to different bytes", tc.events)
		}
	}
}
