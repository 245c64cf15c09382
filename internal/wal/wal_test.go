package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

// frame fabricates a deterministic batch of n events keyed by k, mixing
// inserts and deletes so the codec's op bit is exercised.
func frame(k, n int) []stream.Event {
	evs := make([]stream.Event, n)
	for i := range evs {
		op := stream.Insert
		if (k+i)%3 == 0 {
			op = stream.Delete
		}
		evs[i] = stream.Event{Op: op, Edge: graph.NewEdge(graph.VertexID(k*1000+i), graph.VertexID(k*1000+i+1))}
	}
	return evs
}

// payloadOf encodes evs as one frame payload, the bytes Append takes.
func payloadOf(evs []stream.Event) []byte { return stream.AppendFramePayload(nil, evs) }

// replay is ReplayPayloads with each frame decoded by
// stream.DecodeFramePayload: fn receives the frame's position and its events
// in a buffer reused between calls.
func replay(l *Log, from uint64, fn func(pos uint64, evs []stream.Event) error) error {
	var scratch []stream.Event
	return l.ReplayPayloads(from, func(pos uint64, _ int, payload []byte) error {
		var err error
		if scratch, err = stream.DecodeFramePayload(scratch[:0], payload); err != nil {
			return err
		}
		return fn(pos, scratch)
	})
}

// appendFrames logs frames of the given sizes and returns them.
func appendFrames(t *testing.T, l *Log, sizes ...int) [][]stream.Event {
	t.Helper()
	var out [][]stream.Event
	for k, n := range sizes {
		evs := frame(k, n)
		pos, err := l.Append(payloadOf(evs))
		if err != nil {
			t.Fatalf("Append frame %d: %v", k, err)
		}
		if want := l.End(); pos != want {
			t.Fatalf("Append returned position %d, End is %d", pos, want)
		}
		out = append(out, evs)
	}
	return out
}

// collect replays everything after from into a slice of frames.
func collect(t *testing.T, l *Log, from uint64) (frames [][]stream.Event, positions []uint64) {
	t.Helper()
	err := replay(l, from, func(pos uint64, evs []stream.Event) error {
		cp := make([]stream.Event, len(evs))
		copy(cp, evs)
		frames = append(frames, cp)
		positions = append(positions, pos)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	return frames, positions
}

func sameFrames(a, b [][]stream.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	want := appendFrames(t, l, 1, 7, 4096, 3, 100)
	if l.End() != 5 {
		t.Fatalf("End = %d, want 5", l.End())
	}
	if got, want := l.Events(), int64(1+7+4096+3+100); got != want {
		t.Fatalf("Events = %d, want %d", got, want)
	}

	got, positions := collect(t, l, 0)
	if !sameFrames(got, want) {
		t.Fatal("replayed frames differ from appended frames")
	}
	for i, p := range positions {
		if p != uint64(i+1) {
			t.Fatalf("position %d at index %d, want %d", p, i, i+1)
		}
	}

	// Replay from the middle delivers exactly the suffix.
	got, positions = collect(t, l, 3)
	if !sameFrames(got, want[3:]) {
		t.Fatal("suffix replay differs from appended suffix")
	}
	if len(positions) != 2 || positions[0] != 4 || positions[1] != 5 {
		t.Fatalf("suffix positions = %v, want [4 5]", positions)
	}

	// Replay from the end delivers nothing; beyond the end is an error.
	if got, _ := collect(t, l, 5); len(got) != 0 {
		t.Fatalf("replay from end delivered %d frames", len(got))
	}
	if err := replay(l, 6, func(uint64, []stream.Event) error { return nil }); err == nil {
		t.Fatal("replay beyond End succeeded")
	}
}

func TestEmptyAppendAndFrameLimit(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	appendFrames(t, l, 5)
	pos, err := l.Append(payloadOf(nil))
	if err != nil || pos != 1 {
		t.Fatalf("zero-count Append = (%d, %v), want (1, nil)", pos, err)
	}
	// Append checks the count prefix and the size limits only; each refusal
	// must leave the log exactly where it was.
	oversized := binary.AppendUvarint(nil, 1)
	oversized = append(oversized, make([]byte, stream.MaxFrameBytes)...)
	for name, payload := range map[string][]byte{
		"empty payload":       nil,
		"truncated count":     {0x80},
		"overflowing count":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"count above limit":   binary.AppendUvarint(nil, stream.MaxFrameEvents+1),
		"payload above limit": oversized,
	} {
		if _, err := l.Append(payload); err == nil {
			t.Errorf("%s accepted", name)
		}
		if l.End() != 1 || l.Events() != 5 {
			t.Fatalf("%s moved the log to %d/%d, want 1/5", name, l.End(), l.Events())
		}
	}
	// A refusal writes nothing, so the log stays appendable on a clean
	// record boundary.
	appendFrames(t, l, 3)
	if got, _ := collect(t, l, 0); len(got) != 2 || len(got[1]) != 3 {
		t.Fatalf("after refusals the log replays %d frames, want 2", len(got))
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every frame crosses the threshold and seals its segment.
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := appendFrames(t, l, 10, 10, 10, 10)
	if n := l.Segments(); n != 5 {
		t.Fatalf("Segments = %d, want 5 (4 sealed + active)", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.End() != 4 || l2.Events() != 40 {
		t.Fatalf("reopened End/Events = %d/%d, want 4/40", l2.End(), l2.Events())
	}
	got, _ := collect(t, l2, 0)
	if !sameFrames(got, want) {
		t.Fatal("replay after reopen differs from appended frames")
	}

	// The log stays appendable and position numbering continues.
	appendFrames(t, l2, 3)
	if l2.End() != 5 || l2.Events() != 43 {
		t.Fatalf("post-reopen append End/Events = %d/%d, want 5/43", l2.End(), l2.Events())
	}
}

// lastSegment returns the path of the highest-based segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	var lastBase uint64
	for _, e := range entries {
		if base, ok := parseSegName(e.Name()); ok && (last == "" || base > lastBase) {
			last, lastBase = filepath.Join(dir, e.Name()), base
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return last
}

func TestTornTailRecovery(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"partial record": func(b []byte) []byte { return append(b, 0x40, 0x01, 0x02) },
		"bad crc": func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		},
		"garbage length": func(b []byte) []byte { return append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01) },
		"truncated mid-payload": func(b []byte) []byte {
			return b[:len(b)-3]
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := appendFrames(t, l, 8, 8, 8)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			path := lastSegment(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			defer l2.Close()
			// "bad crc" and "truncated mid-payload" damage the final record;
			// the others leave all three frames whole and add garbage after.
			wantFrames := want
			if name == "bad crc" || name == "truncated mid-payload" {
				wantFrames = want[:2]
			}
			got, _ := collect(t, l2, 0)
			if !sameFrames(got, wantFrames) {
				t.Fatalf("recovered %d frames, want %d", len(got), len(wantFrames))
			}
			// The next append lands on a clean record boundary.
			appendFrames(t, l2, 5)
			got, _ = collect(t, l2, 0)
			if len(got) != len(wantFrames)+1 {
				t.Fatalf("post-recovery append: %d frames, want %d", len(got), len(wantFrames)+1)
			}
		})
	}
}

func TestTornHeaderRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := appendFrames(t, l, 10, 10) // both frames seal; the active segment holds no frames
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash between segment create and header write leaves a short file.
	path := lastSegment(t, dir)
	if err := os.WriteFile(path, []byte("WS"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("reopen over torn header: %v", err)
	}
	defer l2.Close()
	if l2.End() != 2 || l2.Events() != 20 {
		t.Fatalf("End/Events = %d/%d, want 2/20", l2.End(), l2.Events())
	}
	got, _ := collect(t, l2, 0)
	if !sameFrames(got, want) {
		t.Fatal("frames lost across torn-header recovery")
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendFrames(t, l, 10, 10, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first (sealed) segment: recovery must refuse rather than
	// silently drop frames out of the middle of the stream.
	first := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 1}); err == nil {
		t.Fatal("Open succeeded over mid-log corruption")
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := appendFrames(t, l, 10, 10, 10, 10) // 4 sealed segments + empty active

	// Nothing acked yet: nothing to remove.
	if n, err := l.TruncateBefore(0); err != nil || n != 0 {
		t.Fatalf("TruncateBefore(0) = (%d, %v), want (0, nil)", n, err)
	}
	// Ack through frame 2: segments holding frames 1 and 2 go.
	n, err := l.TruncateBefore(2)
	if err != nil || n != 2 {
		t.Fatalf("TruncateBefore(2) = (%d, %v), want (2, nil)", n, err)
	}
	if l.Base() != 2 || l.BaseEvents() != 20 {
		t.Fatalf("Base/BaseEvents = %d/%d, want 2/20", l.Base(), l.BaseEvents())
	}
	// The retained tail still replays intact.
	got, _ := collect(t, l, 2)
	if !sameFrames(got, want[2:]) {
		t.Fatal("retained tail differs after truncation")
	}
	// A replay below the new base is refused with the retention sentinel.
	if err := replay(l, 1, func(uint64, []stream.Event) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("replay below base: %v, want ErrTruncated", err)
	}

	// Even with everything acked, the last segment stays.
	if _, err := l.TruncateBefore(l.End()); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 1 {
		t.Fatal("truncation removed the active segment")
	}
	// And the log keeps its end position durably across reopen.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != 4 || l2.Events() != 40 {
		t.Fatalf("End/Events after truncate+reopen = %d/%d, want 4/40", l2.End(), l2.Events())
	}
}

func TestPositionIndexAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{3, 5, 7, 11}
	appendFrames(t, l, sizes...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()

	cum := int64(0)
	for i, n := range sizes {
		cum += int64(n)
		pos := uint64(i + 1)
		if got, ok := l2.EventsAt(pos); !ok || got != cum {
			t.Fatalf("EventsAt(%d) = (%d, %v), want (%d, true)", pos, got, ok, cum)
		}
		if got, ok := l2.PosForEvents(cum); !ok || got != pos {
			t.Fatalf("PosForEvents(%d) = (%d, %v), want (%d, true)", cum, got, ok, pos)
		}
	}
	if got, ok := l2.PosForEvents(0); !ok || got != 0 {
		t.Fatalf("PosForEvents(0) = (%d, %v), want (0, true)", got, ok)
	}
	// An event count between frame boundaries aligns with nothing.
	if _, ok := l2.PosForEvents(4); ok {
		t.Fatal("PosForEvents aligned a mid-frame event count")
	}
	if _, ok := l2.EventsAt(99); ok {
		t.Fatal("EventsAt answered for a position beyond End")
	}
}

func TestRebaseEmpty(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if err := l.RebaseEmpty(1207, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if l.End() != 1207 || l.Events() != 5_000_000 || l.Base() != 1207 {
		t.Fatalf("rebased End/Events/Base = %d/%d/%d", l.End(), l.Events(), l.Base())
	}
	// Appends continue from the new anchor, durably.
	if pos, err := l.Append(payloadOf(frame(0, 9))); err != nil || pos != 1208 {
		t.Fatalf("append after rebase = (%d, %v), want (1208, nil)", pos, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != 1208 || l2.Events() != 5_000_009 {
		t.Fatalf("reopened End/Events = %d/%d, want 1208/5000009", l2.End(), l2.Events())
	}
	// A log holding frames refuses to rewrite its history.
	if err := l2.RebaseEmpty(0, 0); err == nil {
		t.Fatal("RebaseEmpty succeeded on a log holding frames")
	}
}

func TestClosedLogRefusesEverything(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append(payloadOf(frame(0, 1))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := replay(l, 0, func(uint64, []stream.Event) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replay after Close: %v", err)
	}
	if _, err := l.TruncateBefore(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("TruncateBefore after Close: %v", err)
	}
}
