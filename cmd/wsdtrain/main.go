// Command wsdtrain trains a WSD-L weight policy with DDPG on one or more
// stream files (Section IV of the paper) and writes it as a versioned,
// self-describing policy artifact: the trained parameters plus the pattern
// they are trained for and the training provenance, checksummed, for
// wsdcount -policy, wsdserve -policy, and PUT /policy hot-swaps.
//
// Usage:
//
//	wsdgen -model ff -n 2500 -scenario light -out train1.txt
//	wsdtrain -pattern triangle -m 800 -iters 1000 -out policy.wsdp train1.txt train2.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/stream"
)

func main() {
	pat := flag.String("pattern", "triangle", "pattern: wedge, triangle, 4clique")
	m := flag.Int("m", 1000, "reservoir size during training episodes")
	iters := flag.Int("iters", 1000, "DDPG gradient updates (paper: 1000)")
	seed := flag.Int64("seed", 1, "training seed")
	out := flag.String("out", "policy.wsdp", "output policy artifact path")
	flag.Parse()

	k, err := cli.ParsePattern(*pat)
	if err != nil {
		fatal(err)
	}

	if flag.NArg() == 0 {
		fatal(fmt.Errorf("need at least one training stream file (generate with wsdgen)"))
	}
	var streams []stream.Stream
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		s, err := stream.Read(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		streams = append(streams, s)
	}

	pol, stats, err := rl.Train(rl.TrainConfig{
		Pattern:    k,
		M:          *m,
		Streams:    streams,
		Iterations: *iters,
		Seed:       *seed,
	})
	if err != nil {
		fatal(err)
	}
	art, err := policy.New(k, pol, policy.Provenance{
		Seed:       *seed,
		Iterations: *iters,
		M:          *m,
		Streams:    len(streams),
		Updates:    stats.Updates,
		Episodes:   stats.Episodes,
	})
	if err != nil {
		fatal(err)
	}
	data, err := art.Encode()
	if err != nil {
		fatal(err)
	}
	if err := cli.WriteFileAtomic(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wsdtrain: %d updates over %d episodes (%d env steps) in %v; final training relative error %.3f\n",
		stats.Updates, stats.Episodes, stats.EnvSteps, stats.Elapsed.Round(1e6), stats.FinalRelErr)
	fmt.Printf("wsdtrain: policy %s (%s) written to %s\n", art.ID(), k, *out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wsdtrain: %v\n", err)
	os.Exit(1)
}
