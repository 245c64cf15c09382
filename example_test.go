package wsd_test

import (
	"fmt"

	wsd "repro"
)

// The basic loop: feed insertion and deletion events, read the running
// estimate.
func ExampleNewTriangleCounter() {
	c, err := wsd.NewTriangleCounter(1000, wsd.WithSeed(42))
	if err != nil {
		panic(err)
	}
	c.Process(wsd.Insert(1, 2))
	c.Process(wsd.Insert(2, 3))
	c.Process(wsd.Insert(1, 3)) // completes the triangle {1,2,3}
	fmt.Println(c.Estimate())
	c.Process(wsd.Delete(2, 3)) // destroys it again
	fmt.Println(c.Estimate())
	// Output:
	// 1
	// 0
}

// Counting a different pattern uses the same machinery.
func ExampleNewCounter() {
	c, err := wsd.NewCounter(wsd.WedgePattern, 1000, wsd.WithSeed(7))
	if err != nil {
		panic(err)
	}
	c.Process(wsd.Insert(1, 2))
	c.Process(wsd.Insert(2, 3))
	c.Process(wsd.Insert(2, 4))
	// Wedges centered at 2: {1,3}, {1,4}, {3,4}.
	fmt.Println(c.Estimate())
	// Output:
	// 3
}

// Local counting tracks per-vertex participation alongside the global count.
func ExampleNewLocalCounter() {
	c, err := wsd.NewLocalCounter(wsd.TrianglePattern, 1000, wsd.WithSeed(1))
	if err != nil {
		panic(err)
	}
	for _, e := range [][2]wsd.VertexID{{1, 2}, {2, 3}, {1, 3}, {1, 4}, {3, 4}} {
		c.Process(wsd.Insert(e[0], e[1]))
	}
	// Triangles: {1,2,3} and {1,3,4}; vertices 1 and 3 are in both.
	fmt.Println(c.Estimate(), c.Local(1), c.Local(2))
	// Output:
	// 2 2 1
}

// A custom weight function receives the MDP state of each arriving edge.
func ExampleWithWeightFunc() {
	recencyBiased := func(s wsd.State) float64 {
		// Upweight edges that complete instances with recent edges.
		if s.Instances > 0 {
			return 4
		}
		return 1
	}
	c, err := wsd.NewTriangleCounter(1000, wsd.WithSeed(3), wsd.WithWeightFunc(recencyBiased))
	if err != nil {
		panic(err)
	}
	c.Process(wsd.Insert(10, 11))
	c.Process(wsd.Insert(11, 12))
	c.Process(wsd.Insert(10, 12))
	fmt.Println(c.Estimate())
	// Output:
	// 1
}

// A sharded counter runs independently seeded shards concurrently and
// combines their estimates; SubmitBatch is its amortized ingestion path.
func ExampleNewShardedCounter() {
	// 4 shards share the total budget of 4000 edges (1000 each).
	sc, err := wsd.NewShardedCounter(wsd.TrianglePattern, 4000, 4, wsd.WithSeed(42))
	if err != nil {
		panic(err)
	}
	batch := []wsd.Event{
		wsd.Insert(1, 2), wsd.Insert(2, 3), wsd.Insert(1, 3), // triangle {1,2,3}
		wsd.Insert(3, 4), wsd.Insert(2, 4), // triangle {2,3,4}
	}
	if err := sc.SubmitBatch(batch); err != nil {
		panic(err)
	}
	final := sc.Close() // drains, stops the shard workers, combines
	fmt.Println(final, sc.Shards())
	// Output:
	// 2 4
}

// One multi-pattern counter answers several pattern queries from the same
// ingested stream: one shared sample, one estimate per pattern. This is the
// README's multi-pattern snippet, kept alive here.
func ExampleNewMultiCounter() {
	patterns := []wsd.Pattern{wsd.TrianglePattern, wsd.WedgePattern, wsd.FourCliquePattern}
	mc, err := wsd.NewMultiCounter(patterns, 1000, wsd.WithSeed(42))
	if err != nil {
		panic(err)
	}
	mc.ProcessBatch([]wsd.Event{
		wsd.Insert(1, 2), wsd.Insert(2, 3), wsd.Insert(1, 3), // triangle {1,2,3}
		wsd.Insert(3, 4), // wedges only
	})
	tri, _ := mc.EstimateOf(wsd.TrianglePattern) // false only for a pattern not counted
	wedge, _ := mc.EstimateOf(wsd.WedgePattern)
	fmt.Println(tri, wedge)
	// Output:
	// 1 5
}

// A sharded multi-pattern ensemble: every shard counts every pattern, and
// the per-pattern estimates combine across shards (EstimateAt follows the
// patterns argument's order).
func ExampleNewShardedMultiCounter() {
	patterns := []wsd.Pattern{wsd.TrianglePattern, wsd.WedgePattern}
	sc, err := wsd.NewShardedMultiCounter(patterns, 4000, 4, wsd.WithSeed(42))
	if err != nil {
		panic(err)
	}
	if err := sc.SubmitBatch([]wsd.Event{
		wsd.Insert(1, 2), wsd.Insert(2, 3), wsd.Insert(1, 3),
	}); err != nil {
		panic(err)
	}
	sc.Close()
	fmt.Println(sc.EstimateAt(0), sc.EstimateAt(1))
	// Output:
	// 1 3
}

// The processor's batched ingestion amortizes channel and publish overhead;
// Submit and SubmitBatch can be mixed freely.
func ExampleProcessor_SubmitBatch() {
	c, err := wsd.NewTriangleCounter(1000, wsd.WithSeed(42))
	if err != nil {
		panic(err)
	}
	p := wsd.NewProcessor(c, 64)
	if err := p.SubmitBatch([]wsd.Event{
		wsd.Insert(1, 2), wsd.Insert(2, 3), wsd.Insert(1, 3),
	}); err != nil {
		panic(err)
	}
	fmt.Println(p.Close())
	// Output:
	// 1
}

// Quiesce drains everything submitted so far and hands the wrapped counter
// to the callback as shard 0, where its own checkpoint is reachable.
func ExampleProcessor_Quiesce() {
	c, err := wsd.NewTriangleCounter(1000, wsd.WithSeed(42))
	if err != nil {
		panic(err)
	}
	p := wsd.NewProcessor(c, 64)
	if err := p.SubmitBatch([]wsd.Event{
		wsd.Insert(1, 2), wsd.Insert(2, 3), wsd.Insert(1, 3),
	}); err != nil {
		panic(err)
	}
	var blob []byte
	if err := p.Quiesce(func(i int, sc wsd.ShardCounter) error {
		fmt.Println("shard", i, "estimate", sc.Estimate())
		blob, err = wsd.Checkpoint(sc)
		return err
	}); err != nil {
		panic(err)
	}
	p.Close()
	restored, err := wsd.RestoreCounter(blob)
	if err != nil {
		panic(err)
	}
	fmt.Println(restored.Estimate())
	// Output:
	// shard 0 estimate 1
	// 1
}

// The exact counter is the ground-truth companion for validation at small
// scale.
func ExampleNewExactCounter() {
	ex := wsd.NewExactCounter(wsd.FourCliquePattern)
	for u := wsd.VertexID(1); u <= 4; u++ {
		for v := u + 1; v <= 4; v++ {
			ex.Process(wsd.Insert(u, v))
		}
	}
	fmt.Println(ex.Estimate()) // K4 contains one 4-clique
	// Output:
	// 1
}
