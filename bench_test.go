// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its artifact with
// the Quick profile and logs the rendered table, so
//
//	go test -bench=Table3 -benchtime=1x
//
// prints the reproduction of Table III. cmd/wsdbench runs the same
// experiments with configurable profiles (including the paper-scale -full).
package wsd_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	wsd "repro"

	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/stream"
)

// tabler lifts any experiment result for uniform logging.
type tabler interface{ GetTable() *experiment.Table }

func benchArtifact[T tabler](b *testing.B, run func(experiment.Profile) (T, error)) {
	b.Helper()
	prof := experiment.Quick()
	var last T
	for i := 0; i < b.N; i++ {
		r, err := run(prof)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.Log("\n" + last.GetTable().String())
}

func BenchmarkTable2WedgesMassive(b *testing.B) { benchArtifact(b, experiment.Table2) }

func BenchmarkTable3TrianglesMassive(b *testing.B) { benchArtifact(b, experiment.Table3) }

func BenchmarkTable4TrainingMassive(b *testing.B) { benchArtifact(b, experiment.Table4) }

func BenchmarkTable5Transfer(b *testing.B) { benchArtifact(b, experiment.Table5) }

func BenchmarkTable6InsertOnly(b *testing.B) { benchArtifact(b, experiment.Table6) }

func BenchmarkTable7FourCliquesMassive(b *testing.B) { benchArtifact(b, experiment.Table7) }

func BenchmarkTable8WedgesLight(b *testing.B) { benchArtifact(b, experiment.Table8) }

func BenchmarkTable9TrianglesLight(b *testing.B) { benchArtifact(b, experiment.Table9) }

func BenchmarkTable10FourCliquesLight(b *testing.B) { benchArtifact(b, experiment.Table10) }

func BenchmarkTable11TrainingLight(b *testing.B) { benchArtifact(b, experiment.Table11) }

func BenchmarkTable12TransferLight(b *testing.B) { benchArtifact(b, experiment.Table12) }

func BenchmarkTable13Ablation(b *testing.B) { benchArtifact(b, experiment.Table13) }

func BenchmarkFig1ScalabilityMassive(b *testing.B) { benchArtifact(b, experiment.Fig1) }

func BenchmarkFig2aOrdering(b *testing.B) { benchArtifact(b, experiment.Fig2a) }

func BenchmarkFig2bReservoirSweep(b *testing.B) { benchArtifact(b, experiment.Fig2b) }

func BenchmarkFig2cTrainingSize(b *testing.B) { benchArtifact(b, experiment.Fig2c) }

func BenchmarkFig2dWeightRelationship(b *testing.B) { benchArtifact(b, experiment.Fig2d) }

func BenchmarkFig3ScalabilityLight(b *testing.B) { benchArtifact(b, experiment.Fig3) }

func BenchmarkFig4aOrderingLight(b *testing.B) { benchArtifact(b, experiment.Fig4a) }

func BenchmarkFig4bReservoirSweepLight(b *testing.B) { benchArtifact(b, experiment.Fig4b) }

func BenchmarkFig4cTrainingSizeLight(b *testing.B) { benchArtifact(b, experiment.Fig4c) }

func BenchmarkFig4dWeightRelationshipLight(b *testing.B) { benchArtifact(b, experiment.Fig4d) }

func BenchmarkFig5DeletionIntensity(b *testing.B) {
	prof := experiment.Quick()
	var last *experiment.DeletionIntensityResult
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig5(prof)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.Log("\n" + last.Massive.Table.String() + "\n" + last.Light.Table.String())
}

// Ablation benches for the design choices DESIGN.md calls out beyond the
// paper's own Table XIII.

// Ingestion throughput: single-goroutine Processor (a one-shard ensemble fed
// by per-event Submit) versus the sharded ensemble (batched broadcast, split
// budget).
// 4-cliques make the per-event enumeration cost superlinear in the reservoir
// size, which is the regime sharding is built for: K reservoirs of m/K edges
// do less total completion-search work than one of m, on top of the batched
// ingestion amortizing the per-event channel and publish overhead.

const (
	throughputM     = 9216
	throughputBatch = 512
)

var throughputStreamOnce = sync.OnceValue(func() stream.Stream {
	rng := rand.New(rand.NewSource(11))
	edges := gen.PlantedPartition(12, 50, 0.9, 0.002, rng)
	return stream.LightDeletion(edges, 0.1, rng)
})

func BenchmarkPipelineSingle(b *testing.B) {
	s := throughputStreamOnce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := wsd.NewCounter(wsd.FourCliquePattern, throughputM, wsd.WithSeed(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		p := wsd.NewProcessor(c, 1024)
		for _, ev := range s {
			if err := p.Submit(ev); err != nil {
				b.Fatal(err)
			}
		}
		p.Close()
	}
	b.ReportMetric(float64(len(s))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func benchmarkSharded(b *testing.B, shards int) {
	s := throughputStreamOnce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := wsd.NewShardedCounter(wsd.FourCliquePattern, throughputM, shards,
			wsd.WithSeed(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(s); lo += throughputBatch {
			hi := lo + throughputBatch
			if hi > len(s) {
				hi = len(s)
			}
			if err := e.SubmitBatch(s[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		e.Close()
	}
	b.ReportMetric(float64(len(s))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkSharded(b *testing.B) {
	for _, shards := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { benchmarkSharded(b, shards) })
	}
}

// BenchmarkThroughputTable renders the same comparison as a wsdbench table
// (events/s, speedup, ARE side by side).
func BenchmarkThroughputTable(b *testing.B) { benchArtifact(b, experiment.Throughput) }

func BenchmarkAblationWeightFamilies(b *testing.B) { benchArtifact(b, experiment.WeightFamilies) }

func BenchmarkAblationWRSAlpha(b *testing.B) { benchArtifact(b, experiment.WRSAlphaSweep) }

func BenchmarkAblationDDPG(b *testing.B) { benchArtifact(b, experiment.DDPGAblation) }
