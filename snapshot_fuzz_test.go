package wsd_test

import (
	"bytes"
	"encoding/json"
	"testing"

	wsd "repro"
)

// shardedSnapshotSeed builds a real sharded-counter snapshot over patterns
// (triangle when none are named) to seed the fuzzer with structurally valid
// input.
func shardedSnapshotSeed(tb testing.TB, shards int, patterns ...wsd.Pattern) []byte {
	tb.Helper()
	if len(patterns) == 0 {
		patterns = []wsd.Pattern{wsd.TrianglePattern}
	}
	ens, err := wsd.NewShardedMultiCounter(patterns, 64, shards, wsd.WithSeed(3))
	if err != nil {
		tb.Fatal(err)
	}
	var evs []wsd.Event
	for i := wsd.VertexID(0); i < 40; i++ {
		evs = append(evs, wsd.Insert(i, i+1), wsd.Insert(i, i+2))
	}
	if err := ens.SubmitBatch(evs); err != nil {
		tb.Fatal(err)
	}
	blob, err := ens.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	ens.Close()
	return blob
}

// FuzzShardedSnapshotDecode throws arbitrary bytes at the sharded-snapshot
// surface: InspectShardedSnapshot and RestoreShardedCounter must reject
// malformed frames with an error — never panic — and whatever they accept
// must behave like a live counter. This is the boundary a deployment exposes
// at /restore, so decoder robustness is a security property, not a nicety.
func FuzzShardedSnapshotDecode(f *testing.F) {
	valid := shardedSnapshotSeed(f, 2)
	f.Add(valid)
	f.Add(shardedSnapshotSeed(f, 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"shards":[]}`))
	f.Add([]byte(`{"version":99,"shards":["x"]}`))
	f.Add([]byte(`{"version":1,"shards":[{"version":2,"m":-5}]}`))
	f.Add([]byte(`not json at all`))
	f.Add(bytes.Replace(valid, []byte(`"m"`), []byte(`"M"`), 1))
	// A version-1 envelope whose shard payload declares more items than M.
	f.Add([]byte(`{"version":1,"shards":[{"version":2,"m":2,"pattern":1,"items":[` +
		`{"u":1,"v":2,"rank":1},{"u":2,"v":3,"rank":1},{"u":3,"v":4,"rank":1}]}]}`))
	// A multi-pattern ensemble: shards in the version-3 patterns/estimates
	// shape.
	f.Add(shardedSnapshotSeed(f, 2, wsd.TrianglePattern, wsd.WedgePattern, wsd.FourCliquePattern))

	f.Fuzz(func(t *testing.T, data []byte) {
		info, inspectErr := wsd.InspectShardedSnapshot(data)
		ens, restoreErr := wsd.RestoreShardedCounter(data)
		// Inspect accepting what Restore rejects (or vice versa) would let a
		// deployment validate a snapshot it then fails to load.
		if (inspectErr == nil) != (restoreErr == nil) {
			t.Fatalf("inspect err = %v, restore err = %v: validation surfaces disagree", inspectErr, restoreErr)
		}
		if restoreErr != nil {
			return
		}
		if info.Shards != ens.Shards() {
			t.Fatalf("inspect reports %d shards, restored counter has %d", info.Shards, ens.Shards())
		}
		// The restored ensemble must be a working counter: ingest and close
		// without panic, snapshot round-trips through the same decoder.
		if err := ens.SubmitBatch([]wsd.Event{wsd.Insert(100, 101)}); err != nil {
			t.Fatalf("restored counter rejects ingest: %v", err)
		}
		blob, err := ens.Snapshot()
		if err != nil {
			t.Fatalf("restored counter cannot snapshot: %v", err)
		}
		if _, err := wsd.InspectShardedSnapshot(blob); err != nil {
			t.Fatalf("re-snapshot does not decode: %v", err)
		}
		if !json.Valid(blob) {
			t.Fatal("snapshot is not valid JSON")
		}
		ens.Close()
	})
}
