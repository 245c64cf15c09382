// Multipattern: answer three pattern queries — wedges, triangles, and
// 4-cliques — from one ingested stream with a single multi-pattern counter,
// and verify each estimate against the exact count. The pre-multi
// alternative (three independent counters) would buffer and sample the same
// stream three times; the MultiCounter pays one sampling decision per event
// and shares the clique patterns' enumeration.
package main

import (
	"fmt"
	"log"
	"math/rand"

	wsd "repro"

	"repro/internal/gen"
	"repro/internal/stream"
)

func main() {
	// A community-structured graph (8 planted communities) so all three
	// patterns have plenty of instances, streamed with 20% light deletions.
	rng := rand.New(rand.NewSource(7))
	edges := gen.PlantedPartition(8, 40, 0.4, 0.005, rng)
	events := stream.LightDeletion(edges, 0.2, rng)

	// One counter, three patterns, one shared 1,200-edge sample (under half
	// the live graph, so the counter genuinely estimates). The first pattern
	// is the primary one: sampling weights are tuned for triangles here, but
	// every estimate is unbiased.
	patterns := []wsd.Pattern{wsd.TrianglePattern, wsd.WedgePattern, wsd.FourCliquePattern}
	counter, err := wsd.NewMultiCounter(patterns, 1200, wsd.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}

	// Exact counters replay the same stream as ground truth.
	exact := make(map[wsd.Pattern]*wsd.ExactCounter, len(patterns))
	for _, p := range patterns {
		exact[p] = wsd.NewExactCounter(p)
	}

	for _, ev := range events {
		counter.Process(ev)
		for _, p := range patterns {
			exact[p].Process(ev)
		}
	}

	fmt.Printf("%d events ingested once, %d edges sampled\n", len(events), counter.SampleSize())
	for _, p := range patterns {
		est, _ := counter.EstimateOf(p) // false only for a pattern not counted
		truth := exact[p].Estimate()
		fmt.Printf("%-10s estimate %12.0f   exact %12.0f   rel.err %5.1f%%\n",
			p, est, truth, 100*relErr(est, truth))
	}
}

func relErr(est, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	d := (est - truth) / truth
	if d < 0 {
		return -d
	}
	return d
}
