package wsd_test

import (
	"math"
	"math/rand"
	"testing"

	wsd "repro"

	"repro/internal/gen"
	"repro/internal/shard"
	"repro/internal/stream"
)

func TestQuickstartAPI(t *testing.T) {
	c, err := wsd.NewTriangleCounter(100, wsd.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	c.Process(wsd.Insert(1, 2))
	c.Process(wsd.Insert(2, 3))
	c.Process(wsd.Insert(1, 3))
	if got := c.Estimate(); got != 1 {
		t.Fatalf("estimate = %v, want 1", got)
	}
	c.Process(wsd.Delete(1, 3))
	if got := c.Estimate(); got != 0 {
		t.Fatalf("estimate after deletion = %v, want 0", got)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := wsd.NewTriangleCounter(2); err == nil {
		t.Fatal("M below pattern size should error")
	}
	p := &wsd.Policy{W: make([]float64, 6)}
	if _, err := wsd.NewTriangleCounter(100,
		wsd.WithPolicy(p), wsd.WithWeightFunc(wsd.UniformWeight())); err == nil {
		t.Fatal("policy + weight func should be rejected")
	}
	if _, err := wsd.NewTriangleCounter(100, wsd.WithPolicy(p)); err != nil {
		t.Fatalf("policy-only should be fine: %v", err)
	}
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := gen.BarabasiAlbert(500, 3, rng)
	s := stream.InsertOnly(edges)
	run := func(seed int64) float64 {
		c, err := wsd.NewTriangleCounter(200, wsd.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s {
			c.Process(ev)
		}
		return c.Estimate()
	}
	if run(5) != run(5) {
		t.Fatal("same seed must reproduce the estimate exactly")
	}
	if run(5) == run(6) {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestExactCounterFacade(t *testing.T) {
	ex := wsd.NewExactCounter(wsd.WedgePattern)
	ex.Process(wsd.Insert(1, 2))
	ex.Process(wsd.Insert(2, 3))
	if ex.Estimate() != 1 {
		t.Fatalf("wedges = %v, want 1", ex.Estimate())
	}
	if ex.Name() != "exact" {
		t.Fatal("name")
	}
}

func TestTrainPolicyFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	rng := rand.New(rand.NewSource(2))
	edges := gen.HolmeKim(400, 4, 0.7, rng)
	train := stream.LightDeletion(edges, 0.2, rng)
	p, err := wsd.TrainPolicy(wsd.TrianglePattern, 150, 30, []wsd.Stream{train}, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wsd.NewTriangleCounter(150, wsd.WithPolicy(p), wsd.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	truth := wsd.NewExactCounter(wsd.TrianglePattern)
	for _, ev := range train {
		c.Process(ev)
		truth.Process(ev)
	}
	if math.IsNaN(c.Estimate()) {
		t.Fatal("estimate corrupted")
	}
	if truth.Estimate() > 0 && math.Abs(c.Estimate()-truth.Estimate())/truth.Estimate() > 2 {
		t.Fatalf("trained-policy counter wildly off: %v vs %v", c.Estimate(), truth.Estimate())
	}
}

func TestLocalCounterFacade(t *testing.T) {
	c, err := wsd.NewLocalCounter(wsd.TrianglePattern, 100, wsd.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]wsd.VertexID{{1, 2}, {2, 3}, {1, 3}} {
		c.Process(wsd.Insert(e[0], e[1]))
	}
	if c.Estimate() != 1 {
		t.Fatalf("global estimate = %v, want 1", c.Estimate())
	}
	for _, v := range []wsd.VertexID{1, 2, 3} {
		if c.Local(v) != 1 {
			t.Fatalf("local(%d) = %v, want 1", v, c.Local(v))
		}
	}
	top := c.TopK(2)
	if len(top) != 2 || top[0].Count != 1 {
		t.Fatalf("TopK = %+v", top)
	}
	// Mutually exclusive options are rejected here too.
	if _, err := wsd.NewLocalCounter(wsd.TrianglePattern, 100,
		wsd.WithPolicy(&wsd.Policy{W: make([]float64, 6)}),
		wsd.WithWeightFunc(wsd.UniformWeight())); err == nil {
		t.Fatal("policy + weight func should be rejected")
	}
}

// TestShardedCounterFacade covers the sharded constructor's validation and,
// under -race, the regression where a trained policy's scratch-carrying
// closure was shared across shard worker goroutines (each shard must get its
// own).
func TestShardedCounterFacade(t *testing.T) {
	if _, err := wsd.NewShardedCounter(wsd.TrianglePattern, 100, 0); err == nil {
		t.Fatal("shards=0 should be rejected")
	}
	if _, err := wsd.NewShardedCounter(wsd.TrianglePattern, 8, 4); err == nil {
		t.Fatal("split budget below pattern size should be rejected")
	}
	if _, err := wsd.NewShardedCounter(wsd.TrianglePattern, 8, 4, wsd.WithFullBudgetShards()); err != nil {
		t.Fatalf("full-budget shards with small m: %v", err)
	}

	rng := rand.New(rand.NewSource(9))
	edges := gen.HolmeKim(600, 4, 0.6, rng)
	s := stream.LightDeletion(edges, 0.2, rng)
	policy := &wsd.Policy{W: []float64{0.1, 0.2, 0.1, 0, 0, 0.3}, B: 1}
	sc, err := wsd.NewShardedCounter(wsd.TrianglePattern, 800, 4,
		wsd.WithSeed(5), wsd.WithPolicy(policy))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(s); lo += 128 {
		hi := lo + 128
		if hi > len(s) {
			hi = len(s)
		}
		if err := sc.SubmitBatch(s[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	final := sc.Close()
	if math.IsNaN(final) {
		t.Fatal("combined estimate corrupted")
	}
	if sc.Processed() != int64(len(s)) {
		t.Fatalf("processed %d, want %d", sc.Processed(), len(s))
	}
}

func TestProcessorFacade(t *testing.T) {
	c, err := wsd.NewTriangleCounter(100, wsd.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	p := wsd.NewProcessor(c, 16)
	for _, e := range [][2]wsd.VertexID{{1, 2}, {2, 3}, {1, 3}} {
		if err := p.Submit(wsd.Insert(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	// The wrapped counter is shard 0 of a one-shard ensemble; its own
	// checkpoint stays reachable inside Quiesce.
	var blob []byte
	if err := p.Quiesce(func(i int, sc shard.Counter) error {
		if i != 0 {
			t.Errorf("quiesce visited shard %d of a Processor", i)
		}
		var err error
		blob, err = wsd.Checkpoint(sc)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := p.Close(); got != 1 {
		t.Fatalf("final estimate = %v, want 1", got)
	}
	if p.Processed() != 3 {
		t.Fatalf("processed = %d, want 3", p.Processed())
	}
	restored, err := wsd.RestoreCounter(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Estimate() != 1 {
		t.Fatalf("counter checkpointed inside Quiesce restores to %v, want 1", restored.Estimate())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewProcessor(nil) did not panic")
		}
	}()
	wsd.NewProcessor(nil, 1)
}

// TestProcessorQuiesceDrainsBacklog: a Processor's Quiesce observes every
// previously submitted event applied, hands over the counter holding the
// published estimate, and is refused (as is Snapshot) after Close.
func TestProcessorQuiesceDrainsBacklog(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := stream.LightDeletion(gen.HolmeKim(400, 4, 0.7, rng), 0.2, rng)
	c, err := wsd.NewTriangleCounter(300, wsd.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	p := wsd.NewProcessor(c, 8)
	if err := p.SubmitBatch(s); err != nil {
		t.Fatal(err)
	}
	var seen float64
	if err := p.Quiesce(func(_ int, sc wsd.ShardCounter) error {
		seen = sc.Estimate()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.Processed() != int64(len(s)) {
		t.Fatalf("after quiesce, processed %d of %d", p.Processed(), len(s))
	}
	if seen != p.Estimate() {
		t.Fatalf("quiesced estimate %v differs from published %v", seen, p.Estimate())
	}
	p.Close()
	if err := p.Quiesce(func(int, wsd.ShardCounter) error { return nil }); err != shard.ErrClosed {
		t.Fatalf("quiesce after close: got %v, want ErrClosed", err)
	}
	if _, err := p.Snapshot(); err != shard.ErrClosed {
		t.Fatalf("snapshot after close: got %v, want ErrClosed", err)
	}
}
