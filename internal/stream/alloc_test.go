package stream

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// allocStream returns the binary encoding of an n-event stream cut into
// DefaultFrameEvents frames.
func allocStream(t *testing.T, n int) (Stream, []byte) {
	t.Helper()
	s := make(Stream, 0, n)
	for i := 0; i < n; i++ {
		op := Insert
		if i%5 == 0 {
			op = Delete
		}
		s = append(s, Event{Op: op, Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+1))})
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// TestReadBatchAppendAllocs pins the worker's binary decode at effectively
// zero steady-state allocations: walking a body's frames into pooled batches
// (one batch per frame, as the serving worker's ingest does) and releasing
// them, once the pool's buffers have grown to the frame size, costs only the
// pending list, amortized across the body's events.
func TestReadBatchAppendAllocs(t *testing.T) {
	s, encoded := allocStream(t, 20*DefaultFrameEvents/4)

	var pool BatchPool
	var pending []*Batch
	decodeAll := func() {
		pending = pending[:0]
		err := EachFrame(encoded, func(payload []byte) error {
			b := pool.Get()
			var err error
			if b.Events, err = DecodeFramePayload(b.Events, payload); err != nil {
				b.Release()
				return err
			}
			pending = append(pending, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range pending {
			b.Release()
		}
	}
	for i := 0; i < 2; i++ {
		decodeAll()
	}
	avg := testing.AllocsPerRun(5, decodeAll)
	perEvent := avg / float64(len(s))
	t.Logf("binary decode: %.5f allocs/event (%.1f per %d-event stream)", perEvent, avg, len(s))
	if perEvent > 0.005 {
		t.Errorf("binary decode allocates %.5f/event, budget 0.005 — the pooled-batch path regressed", perEvent)
	}
}

// TestReadBinaryAllocs pins ReadBinary at a constant number of allocations
// whatever the frame count: the in-memory copy of the input (buffer header
// and bytes) and the exactly sized event slice. A per-frame buffer or a
// regrown output would add one per frame.
func TestReadBinaryAllocs(t *testing.T) {
	s, encoded := allocStream(t, 20*DefaultFrameEvents)
	reader := bytes.NewReader(encoded)
	var got Stream
	avg := testing.AllocsPerRun(5, func() {
		reader.Reset(encoded)
		var err error
		if got, err = ReadBinary(reader); err != nil {
			t.Fatal(err)
		}
	})
	if len(got) != len(s) || cap(got) != len(s) {
		t.Fatalf("decoded %d events into capacity %d, want exactly %d", len(got), cap(got), len(s))
	}
	t.Logf("ReadBinary: %.1f allocs per 20-frame stream", avg)
	budget := 3.0
	if raceEnabled {
		// The race build does not fuse bytes.Buffer's append(nil,
		// make(...)...) growth into one allocation.
		budget = 4
	}
	if avg > budget {
		t.Errorf("ReadBinary makes %.1f allocations on a 20-frame stream, budget %.0f", avg, budget)
	}
}

// TestBatchPoolRecycles pins the pool contract the ingest layers rely on:
// release returns the buffer, a get after release reuses it (same backing
// array), the refcounted broadcast only recycles after the last release, and
// over-release panics. The positive recycling-identity checks are skipped
// under the race detector, where sync.Pool deliberately drops items.
func TestBatchPoolRecycles(t *testing.T) {
	var pool BatchPool
	b := pool.Get()
	b.Events = append(b.Events, Event{})
	first := &b.Events[0]
	b.Release()

	b2 := pool.Get()
	if len(b2.Events) != 0 {
		t.Fatalf("recycled batch not reset: len %d", len(b2.Events))
	}
	b2.Events = append(b2.Events, Event{})
	if !raceEnabled && &b2.Events[0] != first {
		t.Error("pool did not recycle the released buffer")
	}

	// Broadcast shape: 1 producer reference + 3 retained consumers.
	b2.Retain(3)
	for i := 0; i < 3; i++ {
		b2.Release()
	}
	b3 := pool.Get() // b2 still holds one reference: must be a new batch
	if b3 == b2 {
		t.Fatal("pool recycled a batch that still holds a reference")
	}
	b2.Release() // last reference: now recyclable
	if b4 := pool.Get(); !raceEnabled && b4 != b2 {
		t.Error("pool did not recycle after the final release")
	}

	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	b3.Release()
	b3.Release() // underflow
}

// TestAppendBinaryAllocs pins AppendBinary at zero allocations into a reused
// buffer once it has grown: a producer encoding one body per request
// (wsdload's churn) reuses its buffer instead of allocating per request.
func TestAppendBinaryAllocs(t *testing.T) {
	s, encoded := allocStream(t, 3*DefaultFrameEvents+7)
	buf := make([]byte, 0, len(encoded))
	if avg := testing.AllocsPerRun(20, func() { buf = AppendBinary(buf[:0], s) }); avg != 0 {
		t.Errorf("AppendBinary makes %.1f allocations into a sized buffer, want 0", avg)
	}
	if !bytes.Equal(buf, encoded) {
		t.Fatal("AppendBinary bytes differ from WriteBinary's")
	}
}
