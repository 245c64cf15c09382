package sampling

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/baselines-golden.json from the current code")

const baselineGoldenPath = "testdata/baselines-golden.json"

// TestBaselineGolden pins the bit pattern of every baseline's final estimate
// — GPS, GPS-A, TRIEST-FD, ThinkD and WRS, for wedges, triangles and
// 4-cliques, at sampler seeds 1-3 — over one seeded light-deletion Holme-Kim
// stream with M = 1,500. A change to the samples' adjacency store, or to the
// order enumeration visits instances in, shows up here as a changed bit
// even when the estimate stays statistically sound. Regenerate with
// `go test ./internal/sampling -run TestBaselineGolden -update` only when an
// estimate is meant to change.
func TestBaselineGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := stream.LightDeletion(gen.HolmeKim(1500, 6, 0.6, rng), 0.2, rng)
	got := map[string]string{}
	for _, name := range allAlgos {
		for _, k := range []pattern.Kind{pattern.Wedge, pattern.Triangle, pattern.FourClique} {
			for seed := int64(1); seed <= 3; seed++ {
				c := makeCounter(t, name, k, 1500, seed)
				for _, ev := range s {
					c.Process(ev)
				}
				got[fmt.Sprintf("%s %s seed %d", name, k, seed)] = fmt.Sprintf("%016x", math.Float64bits(c.Estimate()))
			}
		}
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselineGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(baselineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d estimates, the run produced %d", len(want), len(got))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: estimate bits %s, golden %s", key, got[key], w)
		}
	}
}
