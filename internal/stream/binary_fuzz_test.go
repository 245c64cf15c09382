package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"repro/internal/graph"
)

// referenceReadBinary is the frame-at-a-time decoder ReadBinary replaced,
// kept as the differential reference: a buffered reader, binary.ReadUvarint
// for each length prefix, a copy of each payload, and the binary.Uvarint
// event loop of referenceDecodeFramePayload.
func referenceReadBinary(r io.Reader) (Stream, error) {
	br := bufio.NewReader(r)
	var header [5]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("stream: read binary header: %w", err)
	}
	if !bytes.Equal(header[:4], binaryMagic[:]) {
		return nil, fmt.Errorf("stream: bad binary magic %q", header[:4])
	}
	if header[4] != binaryVersion {
		return nil, fmt.Errorf("stream: binary version %d unsupported (want %d)", header[4], binaryVersion)
	}
	var out Stream
	for {
		payloadLen, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("stream: read frame length: %w", err)
		}
		if payloadLen > MaxFrameBytes {
			return nil, fmt.Errorf("stream: frame of %d bytes exceeds the %d-byte limit", payloadLen, MaxFrameBytes)
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("stream: read frame payload: %w", err)
		}
		batch, err := referenceDecodeFramePayload(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, batch...)
	}
}

// referenceDecodeFramePayload decodes one frame payload with binary.Uvarint
// alone, appending event by event.
func referenceDecodeFramePayload(payload []byte) ([]Event, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("stream: corrupt frame: bad event count")
	}
	payload = payload[n:]
	if count > uint64(len(payload))/2 {
		return nil, fmt.Errorf("stream: corrupt frame: %d events in %d payload bytes", count, len(payload))
	}
	var out []Event
	for i := uint64(0); i < count; i++ {
		opU, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("stream: corrupt frame: truncated event %d", i)
		}
		payload = payload[n:]
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("stream: corrupt frame: truncated event %d", i)
		}
		payload = payload[n:]
		u := opU >> 1
		if u > uint64(^graph.VertexID(0)) || v > uint64(^graph.VertexID(0)) {
			return nil, fmt.Errorf("stream: corrupt frame: vertex id overflows 32 bits in event %d", i)
		}
		op := Insert
		if opU&1 == 1 {
			op = Delete
		}
		out = append(out, Event{Op: op, Edge: graph.NewEdge(graph.VertexID(u), graph.VertexID(v))})
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("stream: corrupt frame: %d trailing bytes", len(payload))
	}
	return out, nil
}

// FuzzReadBinary throws arbitrary bytes at the binary decoder: it must never
// panic or over-allocate, it must accept and reject exactly what the
// frame-at-a-time reference does — with the same error — and return the
// reference's events, and whatever it accepts must survive a
// WriteBinary/ReadBinary round trip unchanged — the same contract the text
// parser's FuzzRead enforces.
func FuzzReadBinary(f *testing.F) {
	seeds := []Stream{
		nil,
		{{Op: Insert, Edge: graph.NewEdge(1, 2)}},
		{{Op: Insert, Edge: graph.NewEdge(0, ^graph.VertexID(0))}, {Op: Delete, Edge: graph.NewEdge(7, 9)}},
		syntheticStream(1, 300),
	}
	for _, s := range seeds {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("WSDB"))             // truncated header
	f.Add([]byte("WSDB\x01\x03\x02")) // frame length without payload
	f.Add([]byte("+ 1 2\n"))          // text format is not binary

	f.Fuzz(func(t *testing.T, input []byte) {
		s, err := ReadBinary(bytes.NewReader(input))
		want, wantErr := referenceReadBinary(bytes.NewReader(input))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ReadBinary error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if len(s) != len(want) {
			t.Fatalf("ReadBinary decoded %d events, reference %d", len(s), len(want))
		}
		for i := range want {
			if s[i] != want[i] {
				t.Fatalf("event %d: %v, reference %v", i, s[i], want[i])
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatalf("WriteBinary of accepted stream failed: %v", err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted stream failed: %v", err)
		}
		if len(again) != len(s) {
			t.Fatalf("round trip length %d, want %d", len(again), len(s))
		}
		for i := range s {
			if s[i] != again[i] {
				t.Fatalf("event %d: %v != %v", i, s[i], again[i])
			}
		}
	})
}

// FuzzBinaryEncodeDecode drives the encoder from fuzzed event data: any
// stream assembled from the raw bytes must round-trip exactly.
func FuzzBinaryEncodeDecode(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Stream
		for i := 0; i+8 < len(raw); i += 9 {
			u := graph.VertexID(raw[i]) | graph.VertexID(raw[i+1])<<8 | graph.VertexID(raw[i+2])<<16 | graph.VertexID(raw[i+3])<<24
			v := graph.VertexID(raw[i+4]) | graph.VertexID(raw[i+5])<<8 | graph.VertexID(raw[i+6])<<16 | graph.VertexID(raw[i+7])<<24
			op := Insert
			if raw[i+8]&1 == 1 {
				op = Delete
			}
			s = append(s, Event{Op: op, Edge: graph.NewEdge(u, v)})
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		if len(again) != len(s) {
			t.Fatalf("round trip length %d, want %d", len(again), len(s))
		}
		for i := range s {
			if s[i] != again[i] {
				t.Fatalf("event %d: %v != %v", i, s[i], again[i])
			}
		}
	})
}
