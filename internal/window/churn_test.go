package window

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// churn replays the served benchmark stream's shape against a Ring the way a
// windowed counter drives it: step t inserts edge t mod len(edges) (a
// membership check, then expiry of the entries aged past the window, then the
// push at the next tick) and deletes edge t - live (a Kill, which misses when
// live exceeds the window: that edge has expired already).
type churn struct {
	r                Ring
	edges            []graph.Edge
	w, live, t, tick int64
}

// newChurn draws n distinct edges over the served stream's 27,000 vertices.
func newChurn(n int, w, live int64) *churn {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[graph.Edge]bool, n)
	edges := make([]graph.Edge, 0, n)
	for len(edges) < n {
		e := graph.NewEdge(graph.VertexID(rng.Intn(27000)), graph.VertexID(rng.Intn(27000)))
		if !e.IsLoop() && !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	return &churn{edges: edges, w: w, live: live}
}

func (c *churn) step() {
	n := int64(len(c.edges))
	if e := c.edges[c.t%n]; !c.r.Has(e) {
		c.tick++
		for {
			if _, ok := c.r.ExpireOne(c.tick - c.w); !ok {
				break
			}
		}
		c.r.Push(e, c.tick)
	}
	if c.t >= c.live {
		c.r.Kill(c.edges[(c.t-c.live)%n])
	}
	c.t++
}

// BenchmarkRingChurn is the window ledger's rung at the fleet-wal-window
// shape (window 65,536, deletions 131,072 events behind, a 262,144-edge
// cycle): the time of one insert/expire/kill step, and the live heap of the
// warmed ring per pending entry.
func BenchmarkRingChurn(b *testing.B) {
	const w, live, cycle = 1 << 16, 1 << 17, 1 << 18
	c := newChurn(cycle, w, live)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for c.t < 2*w {
		c.step()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(c.r.Entries()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
	b.ReportMetric(heap, "heap-B/pending")
}

// TestRingChurnAllocs guards the churn step of a grown ring: once the buffer
// and the index have reached the window's size, Push, ExpireOne and Kill
// allocate nothing — both when deletions miss (the served shape) and when
// they kill live entries.
func TestRingChurnAllocs(t *testing.T) {
	const w = 1 << 10
	for _, live := range []int64{2 * w, w / 2} {
		c := newChurn(4*w, w, live)
		for c.t < 4*w {
			c.step()
		}
		if n := testing.AllocsPerRun(2000, c.step); n != 0 {
			t.Errorf("live %d: %v allocations per churn step, want 0", live, n)
		}
	}
}
