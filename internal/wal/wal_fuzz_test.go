package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stream"
)

// segmentSeed builds a real segment file's bytes: three frames behind a valid
// header, exactly what a healthy log leaves on disk.
func segmentSeed(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for k, n := range []int{1, 9, 200} {
		if _, err := l.Append(payloadOf(frame(k, n))); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzWALSegmentDecode throws arbitrary bytes at the segment recovery path:
// Open over a single fuzzed segment must recover (truncating a torn tail) or
// reject with an error — never panic — and whatever it accepts must behave
// like a log: replay in strictly increasing positions with event counts that
// sum to Events(), and appends that land cleanly after the recovered tail and
// replay as the very payload bytes appended.
// This is the surface a coordinator crash leaves behind, so recovery
// robustness decides whether a restart ever needs manual repair.
func FuzzWALSegmentDecode(f *testing.F) {
	valid := segmentSeed(f)
	f.Add(valid)
	f.Add(valid[:headerSize])        // empty log
	f.Add(valid[:headerSize+2])      // torn first record
	f.Add(valid[:len(valid)-1])      // torn last record
	f.Add([]byte{})                  // crash before the header write
	f.Add([]byte("WSDW"))            // header cut after the magic
	f.Add([]byte("WSDX\x01"))        // wrong magic
	f.Add(append([]byte(nil), 'W'))  // one byte
	f.Add(append(valid, 0xff, 0x01)) // garbage record length after valid frames
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+3] ^= 0x40 // corrupt a payload byte under the CRC
	f.Add(flipped)
	version := append([]byte(nil), valid...)
	version[4] = 9 // unsupported version
	f.Add(version)
	huge := append([]byte(nil), valid[:headerSize]...)
	f.Add(append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f)) // record length past the frame cap

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			return // rejected input is fine; panics are not
		}
		defer l.Close()

		last := l.Base()
		var total int64 = l.BaseEvents()
		err = replay(l, l.Base(), func(pos uint64, evs []stream.Event) error {
			if pos != last+1 {
				t.Fatalf("replay position %d after %d: not monotonic", pos, last)
			}
			last = pos
			total += int64(len(evs))
			return nil
		})
		if err != nil {
			t.Fatalf("accepted log fails its own replay: %v", err)
		}
		if last != l.End() || total != l.Events() {
			t.Fatalf("replay covered (%d, %d events), log claims (%d, %d)", last, total, l.End(), l.Events())
		}

		// The recovered log must accept appends on a clean record boundary,
		// and store the appended payload verbatim: the bytes replayed are the
		// bytes the coordinator sent.
		evs := frame(7, 5)
		want := payloadOf(evs)
		pos, err := l.Append(want)
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if pos != l.End() {
			t.Fatalf("append position %d, End %d", pos, l.End())
		}
		found := false
		err = l.ReplayPayloads(pos-1, func(p uint64, events int, got []byte) error {
			if p != pos {
				t.Fatalf("replay of appended frame at %d, want %d", p, pos)
			}
			if events != len(evs) {
				t.Fatalf("appended frame replays %d events, want %d", events, len(evs))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("appended payload replays as %x, want %x", got, want)
			}
			found = true
			return nil
		})
		if err != nil || !found {
			t.Fatalf("appended frame did not replay (err %v)", err)
		}
	})
}
