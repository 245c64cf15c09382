// Benchmark harness: one sub-benchmark per entry of experiment.Registry, the
// paper's tables, figures and ablations. Each regenerates its artifact with
// the Quick profile and logs the rendered table, so
//
//	go test -run xxx -bench 'Artifacts/table3$' -benchtime 1x
//
// prints the reproduction of Table III, and adding -cpuprofile profiles it.
// cmd/wsdbench runs the same registry with configurable profiles (including
// the paper-scale -full); ingest throughput lives in internal/benchsuite
// (wsdbench -exp suite).
package wsd_test

import (
	"testing"

	"repro/internal/experiment"
)

func BenchmarkArtifacts(b *testing.B) {
	prof := experiment.Quick()
	for _, e := range experiment.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			var last *experiment.Table
			for b.Loop() {
				t, err := e.Run(prof)
				if err != nil {
					b.Fatal(err)
				}
				last = t
			}
			b.Log("\n" + last.String())
		})
	}
}
