package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stream"
)

// TestConcurrentAppendReplayTruncate drives appends, replays, and
// retention-truncation from concurrent goroutines — the coordinator's actual
// shape: broadcasts appending up front, catch-up replaying lagging workers
// from the middle, retention trimming acknowledged segments behind both. Under
// -race this doubles as the data-race proof; the assertions hold either way:
// replayed positions are strictly increasing with intact frames, and the only
// tolerated replay failure is ErrTruncated from retention winning a race.
func TestConcurrentAppendReplayTruncate(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 256}) // rotate constantly
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const frames = 400
	var appended atomic.Uint64 // highest position durably appended
	var wg sync.WaitGroup

	// Appender: every frame's content is a function of its 1-based position,
	// so any replayer can verify any frame it sees without coordination.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= frames; k++ {
			if _, err := l.Append(payloadOf(frame(k, 1+k%17))); err != nil {
				t.Errorf("append %d: %v", k, err)
				return
			}
			appended.Store(uint64(k))
		}
	}()

	// Replayers: start from wherever the log has reached, checking position
	// monotonicity and that each frame decodes to exactly what the appender
	// wrote at that position.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := l.Base()
				last := from
				err := replay(l, from, func(pos uint64, evs []stream.Event) error {
					if pos != last+1 {
						t.Errorf("replay position %d after %d: not monotonic", pos, last)
					}
					last = pos
					want := frame(int(pos), 1+int(pos)%17)
					if len(evs) != len(want) {
						t.Errorf("frame %d: %d events, want %d", pos, len(evs), len(want))
						return nil
					}
					for j := range evs {
						if evs[j] != want[j] {
							t.Errorf("frame %d event %d: %v != %v", pos, j, evs[j], want[j])
							return nil
						}
					}
					return nil
				})
				// Retention may remove a segment between capturing the segment
				// list and reading it; that is the documented, retryable race.
				if err != nil && !errors.Is(err, ErrTruncated) {
					t.Errorf("replay from %d: %v", from, err)
				}
			}
		}()
	}

	// Truncator: retention chases the appender like the coordinator chasing
	// the fleet's minimum ack.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := l.TruncateBefore(appended.Load()); err != nil {
				t.Errorf("truncate: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced, the log is whole: end position, event accounting, and a final
	// full replay of the retained range all agree.
	if l.End() != frames {
		t.Fatalf("End = %d, want %d", l.End(), frames)
	}
	var total int64
	for k := 1; k <= frames; k++ {
		total += int64(1 + k%17)
	}
	if l.Events() != total {
		t.Fatalf("Events = %d, want %d", l.Events(), total)
	}
	last := l.Base()
	if err := replay(l, l.Base(), func(pos uint64, evs []stream.Event) error {
		if pos != last+1 {
			t.Fatalf("final replay position %d after %d", pos, last)
		}
		last = pos
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != frames {
		t.Fatalf("final replay reached %d, want %d", last, frames)
	}
}
