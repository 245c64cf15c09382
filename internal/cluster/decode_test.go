package cluster

import (
	"encoding/binary"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

// TestDecodeBodyAllocs pins the coordinator's binary body decode at zero
// allocations once its reused decode buffer has grown: the body is decoded
// in place, with no reader, frame buffer or per-frame slice.
func TestDecodeBodyAllocs(t *testing.T) {
	s := make(stream.Stream, 512)
	for i := range s {
		s[i] = stream.Event{Op: stream.Op(i % 2), Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(3*i+1))}
	}
	body := stream.AppendBinaryHeader(nil)
	for lo := 0; lo < len(s); lo += 100 { // several frames
		payload := stream.AppendFramePayload(nil, s[lo:min(lo+100, len(s))])
		body = append(binary.AppendUvarint(body, uint64(len(payload))), payload...)
	}

	c := &Coordinator{}
	decode := func() {
		evs, err := c.decodeBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != len(s) {
			t.Fatalf("decoded %d events, want %d", len(evs), len(s))
		}
	}
	decode() // grows decBuf
	for i, ev := range c.decBuf {
		if ev != s[i] {
			t.Fatalf("event %d: %v, want %v", i, ev, s[i])
		}
	}
	if avg := testing.AllocsPerRun(20, decode); avg != 0 {
		t.Errorf("decodeBody makes %.1f allocations per 512-event binary body, want 0", avg)
	}
}
