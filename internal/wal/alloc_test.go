package wal

import (
	"testing"

	"repro/internal/stream"
)

// TestAppendAllocs pins the append hot path at effectively zero steady-state
// allocations: the record is assembled in a reused scratch buffer and lands
// in one write, so logging a broadcast costs no garbage on the pooled ingest
// path. The cum index grows by one int64 per frame — amortized away by
// batch size — which is what the 0.02 allocs/event budget prices in.
func TestAppendAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	evs := frame(1, stream.DefaultFrameEvents)
	payload := payloadOf(evs)
	// Warm the scratch buffers (and a first tranche of cum capacity).
	for i := 0; i < 8; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := avg / float64(len(evs))
	t.Logf("wal append: %.5f allocs/event (%.2f per %d-event frame)", perEvent, avg, len(evs))
	if perEvent > 0.02 {
		t.Errorf("wal append allocates %.5f/event, budget 0.02 — the reused-record path regressed", perEvent)
	}
}
