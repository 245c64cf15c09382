package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// syntheticStream builds a deterministic mixed insert/delete stream of n
// events without pulling in the generator package.
func syntheticStream(seed int64, n int) Stream {
	rng := rand.New(rand.NewSource(seed))
	out := make(Stream, 0, n)
	live := make([]graph.Edge, 0, n)
	for len(out) < n {
		if len(live) > 0 && rng.Float64() < 0.2 {
			i := rng.Intn(len(live))
			out = append(out, Event{Op: Delete, Edge: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		e := graph.NewEdge(graph.VertexID(rng.Intn(1<<20)), graph.VertexID(rng.Intn(1<<20)))
		if e.IsLoop() {
			continue
		}
		out = append(out, Event{Op: Insert, Edge: e})
		live = append(live, e)
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, DefaultFrameEvents, DefaultFrameEvents + 1, 3*DefaultFrameEvents + 17} {
		s := syntheticStream(int64(n)+1, n)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != len(s) {
			t.Fatalf("n=%d: round trip length %d", n, len(got))
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("n=%d: event %d: %v != %v", n, i, got[i], s[i])
			}
		}
	}
}

func TestBinaryExtremeVertexIDs(t *testing.T) {
	s := Stream{
		{Op: Insert, Edge: graph.NewEdge(0, 1)},
		{Op: Insert, Edge: graph.NewEdge(0, ^graph.VertexID(0))},
		{Op: Delete, Edge: graph.NewEdge(^graph.VertexID(0)-1, ^graph.VertexID(0))},
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("event %d: %v != %v", i, got[i], s[i])
		}
	}
}

// TestBinaryStreamingBatches: AppendBinary cuts full DefaultFrameEvents
// frames and a short tail, never an empty frame, and the frames round-trip.
func TestBinaryStreamingBatches(t *testing.T) {
	s := syntheticStream(5, 3*DefaultFrameEvents+33)
	var got Stream
	var sizes []int
	err := EachFrame(AppendBinary(nil, s), func(payload []byte) error {
		batch, err := DecodeFramePayload(nil, payload)
		if err != nil {
			return err
		}
		sizes = append(sizes, len(batch))
		got = append(got, batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{DefaultFrameEvents, DefaultFrameEvents, DefaultFrameEvents, 33}; !slices.Equal(sizes, want) {
		t.Fatalf("frame sizes %v, want %v", sizes, want)
	}
	if !slices.Equal(got, s) {
		t.Fatalf("streamed %d events, want the %d written", len(got), len(s))
	}
	// No events, no frame: the stream is the header alone.
	if empty := AppendBinary(nil, nil); !bytes.Equal(empty, AppendBinaryHeader(nil)) {
		t.Fatalf("empty stream encodes as %x, want the bare header", empty)
	}
}

// TestAppendBinarySplitsOversizedBatches: one AppendBinary call over more
// events than MaxFrameEvents still produces a stream every reader accepts,
// in DefaultFrameEvents frames, and appends behind whatever dst holds.
func TestAppendBinarySplitsOversizedBatches(t *testing.T) {
	n := MaxFrameEvents + 5
	s := make(Stream, n)
	for i := range s {
		s[i] = Event{Op: Insert, Edge: graph.NewEdge(graph.VertexID(i), graph.VertexID(i+1))}
	}
	prefix := []byte("kept")
	data := AppendBinary(append([]byte{}, prefix...), s)
	if !bytes.HasPrefix(data, prefix) {
		t.Fatal("AppendBinary overwrote dst")
	}
	total, frames := 0, 0
	err := EachFrame(data[len(prefix):], func(payload []byte) error {
		batch, err := DecodeFramePayload(nil, payload)
		if len(batch) > DefaultFrameEvents {
			t.Fatalf("frame of %d events, above DefaultFrameEvents", len(batch))
		}
		total += len(batch)
		frames++
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("read %d of %d events", total, n)
	}
	if want := (n + DefaultFrameEvents - 1) / DefaultFrameEvents; frames != want {
		t.Fatalf("oversized batch split into %d frames, want %d", frames, want)
	}
}

// TestWriteBinaryPinnedBytes pins WriteBinary's output to the bytes of the
// buffered frame writer it replaced (length and sha256 per stream): encoded
// benchmark inputs and recorded streams must not change.
func TestWriteBinaryPinnedBytes(t *testing.T) {
	for _, tc := range []struct {
		n, bytes int
		sha256   string
	}{
		{0, 5, "8fc2a6e704a5eb2ce464d9543eb0b7bd2d56c5dc1ca6fb708f6f4a93b27a97f0"},
		{1, 13, "6d2540f38b0941f6025eae661d44db4dec103ffef336449db2f21fd97bbc3b38"},
		{4096, 24515, "515f34caf3f2e41c67a70fff15dba679e3561870c2468852147ce9d8f07d7756"},
		{4097, 24539, "c22145196747473a37995fa13fa3e01b4448f26dac2bc6d1ebe7a7289bcb64f6"},
		{12305, 73655, "629ad346ee5fe7055243e889ff632584f12ed00c7e5050e2653a1cb91f028d86"},
		{262149, 1569177, "7b1d06b5ab3f7fc971dce0f193f227f493182aa9b6da0e48daaa47036a7da92b"},
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, syntheticStream(int64(tc.n)+1, tc.n)); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != tc.bytes || got != tc.sha256 {
			t.Errorf("n=%d: %d bytes sha256 %s, want %d bytes sha256 %s", tc.n, buf.Len(), got, tc.bytes, tc.sha256)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, syntheticStream(9, 50)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:3],
		"bad magic":        append([]byte("XXXX"), good[4:]...),
		"bad version":      append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated frame":  good[:len(good)-3],
		"oversized length": append(append([]byte{}, good[:5]...), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		"hostile count":    append(append([]byte{}, good[:5]...), 3, 0xFF, 0xFF, 0x7F),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
	// A torn tail is reported as such, whether the cut falls inside a frame's
	// length prefix or inside its payload.
	for name, torn := range map[string][]byte{
		"length prefix": append(append([]byte{}, good[:5]...), 0x80),
		"payload":       good[:len(good)-3],
	} {
		if _, err := ReadBinary(bytes.NewReader(torn)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("torn %s: got %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}

// TestDecodeFramePayloadUvarints pins the frame decoder's inline one- to
// three-byte uvarint path, and its fallback, to the reference decode built on
// binary.Uvarint alone: each payload must yield the same events or the same
// error, at every encoded length and boundary, for non-minimal and overlong
// encodings, and behind a non-empty dst.
func TestDecodeFramePayloadUvarints(t *testing.T) {
	// event encodes one event: uvarint(u<<1|op) uvarint(v).
	event := func(opU, v uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(nil, opU), v)
	}
	payload := func(count uint64, events ...[]byte) []byte {
		p := binary.AppendUvarint(nil, count)
		for _, e := range events {
			p = append(p, e...)
		}
		return p
	}
	cases := map[string][]byte{}
	for _, id := range []uint64{0, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<32 - 1} {
		cases[fmt.Sprintf("v=%d", id)] = payload(1, event(2, id))
		cases[fmt.Sprintf("u=%d insert", id)] = payload(1, event(id<<1, 3))
		cases[fmt.Sprintf("u=%d delete", id)] = payload(2, event(id<<1|1, 3), event(4, id))
	}
	cases["v=2^32 overflows"] = payload(1, event(2, 1<<32))
	cases["u=2^32 overflows"] = payload(1, event(1<<33, 2))
	cases["delete bit on a 5-byte u"] = payload(1, event(1<<32|1, 7))
	cases["non-minimal 2-byte"] = payload(1, []byte{0x80, 0x00, 0xff, 0x00})
	cases["non-minimal 3- and 4-byte"] = payload(1, []byte{0x80, 0x80, 0x00, 0x81, 0x80, 0x80, 0x00})
	ten := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}
	cases["10-byte zero"] = payload(1, append(append([]byte{}, ten...), 0x00), []byte{5})
	cases["10-byte 2^63"] = payload(1, append(append([]byte{}, ten...), 0x01), []byte{5})
	cases["10-byte overflow"] = payload(1, append(append([]byte{}, ten...), 0x02), []byte{5})
	cases["11-byte"] = payload(1, append(append([]byte{}, ten...), 0x80, 0x00), []byte{5})
	cases["truncated in u"] = payload(1, []byte{0x80, 0x80})
	cases["truncated in v"] = payload(1, []byte{0x02, 0xff, 0xff, 0xff})
	cases["truncated second event"] = payload(2, event(2, 3), []byte{0x82, 0x80})
	cases["trailing bytes"] = payload(1, event(2, 3), []byte{0})
	cases["one-byte tail"] = payload(2, event(200, 300), event(2, 3))
	cases["bad count"] = []byte{0x80}
	cases["hostile count"] = payload(3, event(2, 3))

	prefix := []Event{{Op: Delete, Edge: graph.NewEdge(9, 10)}}
	for name, p := range cases {
		want, wantErr := referenceDecodeFramePayload(p)
		for _, bad := range []string{"overflow", "truncated", "11-byte", "trailing", "count"} {
			if strings.Contains(name, bad) && wantErr == nil {
				t.Fatalf("%s: the reference accepts the case, so it tests nothing", name)
			}
		}
		got, err := DecodeFramePayload(append([]Event{}, prefix...), p)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, reference %v", name, err, wantErr)
			continue
		}
		if got[0] != prefix[0] {
			t.Errorf("%s: dst prefix overwritten", name)
		}
		if got = got[len(prefix):]; len(got) != len(want) {
			t.Errorf("%s: %d events, reference %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: event %d: %v, reference %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestReadAutoSniffsBothFormats(t *testing.T) {
	s := syntheticStream(3, 400)

	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	if err := Write(&txt, s); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"binary": &bin, "text": &txt} {
		got, err := ReadAuto(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(s) {
			t.Fatalf("%s: %d events, want %d", name, len(got), len(s))
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("%s: event %d: %v != %v", name, i, got[i], s[i])
			}
		}
	}
	// A stream too short for the magic must still parse as text.
	short, err := ReadAuto(bytes.NewBufferString("1 2"))
	if err != nil || len(short) != 1 {
		t.Fatalf("short text stream: %v, %d events", err, len(short))
	}
}
