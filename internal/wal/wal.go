// Package wal is a segmented, replayable on-disk log of ingested event
// batches — the durability layer under the cluster coordinator. The sampling
// lineage this repo implements (TRIEST-FD, ThinkD) is defined over an ordered
// insert/delete stream, so worker recovery reduces exactly to "replay the
// same frame sequence in the same order": a worker healed by replaying the
// log tail from its last acknowledged position is bit-identical to one that
// never failed, because the counters' trajectories are functions of the event
// order and their own (checkpointed) randomness alone.
//
// Layout. The log is a directory of segment files named by the stream
// position they start after:
//
//	wal-00000000000000000000.seg  frames 1..
//	wal-00000000000000001207.seg  frames 1208..
//
//	segment: header record*
//	header:  "WSDW" version(1) basePosition(8, BE) baseEvents(8, BE)
//	record:  uvarint(payloadBytes) payload crc32c(payload, 4, LE)
//
// A record's payload is byte-for-byte a WSDB binary stream frame payload
// (internal/stream: uvarint(eventCount) followed by varint-packed events).
// Append takes the payload already encoded — the coordinator logs the very
// bytes it puts on the wire — and replay assembles valid /ingest bodies by
// concatenating stored payloads behind a stream header: the frames, and frame
// boundaries, a worker applies during replay are the ones it was sent live.
//
// Positions are 1-based frame indexes, monotonic across segments and across
// reopens. Appends go to the last (active) segment, which seals and rotates
// once it crosses Options.SegmentBytes. Open validates every frame (CRC plus
// the full wire decode); a torn tail on the last segment — a crash mid-append
// — is truncated away, while corruption anywhere else is an error. Retention
// (TruncateBefore) removes only whole sealed segments at or below the fleet's
// minimum acknowledged position, and never the last segment, whose header
// anchors the log's end position durably.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stream"
)

const (
	segMagic   = "WSDW"
	segVersion = 1
	// headerSize is magic + version + basePosition + baseEvents.
	headerSize = 4 + 1 + 8 + 8
	crcSize    = 4
	// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 64 << 20
)

// castagnoli is the CRC-32C polynomial table; hardware-accelerated on the
// platforms this serves from.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by every method after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrTruncated reports a replay (or ack realignment) that reaches for a
// position retention has already removed: the caller's state predates the
// log's retained range and only a snapshot restore can bridge the gap.
var ErrTruncated = errors.New("wal: position truncated by retention")

// Options configures a Log.
type Options struct {
	// SegmentBytes is the size at which the active segment seals and a new
	// one starts; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Sync fsyncs after every append. Off by default: the coordinator's
	// correctness needs ordering (one Write per record, truncate-on-open),
	// not per-batch durability, and sealing a segment always syncs it.
	Sync bool
}

// segment is one log file: the frames (base, base+frames].
type segment struct {
	path       string
	base       uint64 // position of the last frame before this segment
	baseEvents int64  // cumulative events through base
	frames     int
	size       int64
}

// Log is a durable frame log. Construct with Open; safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	active *os.File
	segs   []*segment // oldest first; the last is the active segment
	// end is the position of the newest frame; endEvents the cumulative
	// event count through it. startPos/startEvents mirror them for the oldest
	// retained position (the base of segs[0]).
	end         uint64
	endEvents   int64
	startPos    uint64
	startEvents int64
	// cum[i] is the cumulative event count after frame startPos+i+1: the
	// index that aligns a worker-reported absolute event count to a frame
	// boundary (PosForEvents) and prices a replay (EventsAt).
	cum []int64

	recordBuf []byte
	closed    bool
	broken    bool
}

func segName(base uint64) string { return fmt.Sprintf("wal-%020d.seg", base) }

// parseSegName extracts the base position from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(digits) != 20 {
		return 0, false
	}
	base, err := strconv.ParseUint(digits, 10, 64)
	return base, err == nil
}

func appendHeader(dst []byte, base uint64, baseEvents int64) []byte {
	dst = append(dst, segMagic...)
	dst = append(dst, segVersion)
	dst = binary.BigEndian.AppendUint64(dst, base)
	dst = binary.BigEndian.AppendUint64(dst, uint64(baseEvents))
	return dst
}

func parseHeader(b []byte) (base uint64, baseEvents int64, err error) {
	if len(b) < headerSize {
		return 0, 0, fmt.Errorf("wal: segment header truncated (%d bytes)", len(b))
	}
	if string(b[:4]) != segMagic {
		return 0, 0, fmt.Errorf("wal: bad segment magic %q", b[:4])
	}
	if b[4] != segVersion {
		return 0, 0, fmt.Errorf("wal: segment version %d unsupported (want %d)", b[4], segVersion)
	}
	base = binary.BigEndian.Uint64(b[5:13])
	baseEvents = int64(binary.BigEndian.Uint64(b[13:21]))
	if baseEvents < 0 {
		return 0, 0, fmt.Errorf("wal: segment base event count overflows")
	}
	return base, baseEvents, nil
}

// Open opens (or creates) the log in dir, validating every retained frame and
// truncating a torn tail on the last segment — the recovery path after a
// coordinator crash mid-append.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	type named struct {
		name string
		base uint64
	}
	var files []named
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if base, ok := parseSegName(e.Name()); ok {
			files = append(files, named{e.Name(), base})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].base < files[j].base })

	l := &Log{dir: dir, opts: opts}
	if len(files) == 0 {
		if err := l.createSegment(0, 0); err != nil {
			return nil, err
		}
		return l, nil
	}
	for i, f := range files {
		if err := l.loadSegment(filepath.Join(dir, f.name), f.base, i == len(files)-1); err != nil {
			return nil, err
		}
	}
	last := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.active = f
	return l, nil
}

// createSegment starts a fresh active segment whose frames follow position
// base; the header goes out in one write.
func (l *Log) createSegment(base uint64, baseEvents int64) error {
	path := filepath.Join(l.dir, segName(base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(appendHeader(nil, base, baseEvents)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.active = f
	l.segs = append(l.segs, &segment{path: path, base: base, baseEvents: baseEvents, size: headerSize})
	if len(l.segs) == 1 {
		l.startPos, l.startEvents = base, baseEvents
		l.end, l.endEvents = base, baseEvents
	}
	return nil
}

// loadSegment validates one segment at open time: header chained to the
// previous segment, every frame CRC-checked and wire-decoded. On the last
// segment a bad frame (or a short header — a crash between create and header
// write) is a torn tail and is truncated away; anywhere else it is
// corruption, reported instead of silently dropped.
func (l *Log) loadSegment(path string, nameBase uint64, last bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if len(data) < headerSize {
		// Torn header: the file was created but the crash beat the header
		// write. Recoverable only when the chain tells us what the header
		// would have said.
		if last && (len(l.segs) > 0 || nameBase == 0) {
			var events int64
			if len(l.segs) > 0 {
				if nameBase != l.end {
					return fmt.Errorf("wal: segment %s starts at %d, previous ends at %d", path, nameBase, l.end)
				}
				events = l.endEvents
			}
			if err := os.WriteFile(path, appendHeader(nil, nameBase, events), 0o644); err != nil {
				return fmt.Errorf("wal: rewrite torn segment header: %w", err)
			}
			l.segs = append(l.segs, &segment{path: path, base: nameBase, baseEvents: events, size: headerSize})
			if len(l.segs) == 1 {
				l.startPos, l.startEvents = nameBase, events
				l.end, l.endEvents = nameBase, events
			}
			return nil
		}
		return fmt.Errorf("wal: segment %s header truncated (%d bytes)", path, len(data))
	}
	base, baseEvents, err := parseHeader(data)
	if err != nil {
		return fmt.Errorf("wal: segment %s: %w", path, err)
	}
	if base != nameBase {
		return fmt.Errorf("wal: segment %s header declares base %d", path, base)
	}
	if len(l.segs) > 0 {
		if base != l.end || baseEvents != l.endEvents {
			return fmt.Errorf("wal: segment %s starts at position %d/%d events, previous segment ends at %d/%d: the log has a gap", path, base, baseEvents, l.end, l.endEvents)
		}
	} else {
		l.startPos, l.startEvents = base, baseEvents
		l.end, l.endEvents = base, baseEvents
	}
	seg := &segment{path: path, base: base, baseEvents: baseEvents}

	off := headerSize
	good := off // end offset of the last valid record
	var scratch []stream.Event
	var scanErr error
	for off < len(data) {
		payloadLen, n := binary.Uvarint(data[off:])
		if n <= 0 {
			scanErr = fmt.Errorf("wal: segment %s: bad record length at offset %d", path, off)
			break
		}
		if payloadLen > stream.MaxFrameBytes {
			scanErr = fmt.Errorf("wal: segment %s: record of %d bytes exceeds the %d-byte frame limit", path, payloadLen, stream.MaxFrameBytes)
			break
		}
		recEnd := off + n + int(payloadLen) + crcSize
		if recEnd > len(data) || recEnd < off {
			scanErr = fmt.Errorf("wal: segment %s: record at offset %d truncated", path, off)
			break
		}
		payload := data[off+n : off+n+int(payloadLen)]
		want := binary.LittleEndian.Uint32(data[recEnd-crcSize : recEnd])
		if crc32.Checksum(payload, castagnoli) != want {
			scanErr = fmt.Errorf("wal: segment %s: record at offset %d fails its checksum", path, off)
			break
		}
		scratch = scratch[:0]
		scratch, err = stream.DecodeFramePayload(scratch, payload)
		if err != nil {
			scanErr = fmt.Errorf("wal: segment %s: record at offset %d: %w", path, off, err)
			break
		}
		seg.frames++
		l.end++
		l.endEvents += int64(len(scratch))
		l.cum = append(l.cum, l.endEvents)
		off = recEnd
		good = off
	}
	if scanErr != nil {
		if !last {
			return scanErr
		}
		// Torn tail: a crash mid-append left a partial record. Everything
		// through the last whole frame is intact; cut the tail so the next
		// append lands on a record boundary.
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	seg.size = int64(good)
	l.segs = append(l.segs, seg)
	return nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// End returns the position of the newest frame (0 for an empty log based at
// the stream start).
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Events returns the cumulative event count through End.
func (l *Log) Events() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.endEvents
}

// Base returns the oldest retained position: frames (Base, End] are
// replayable.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.startPos
}

// BaseEvents returns the cumulative event count through Base.
func (l *Log) BaseEvents() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.startEvents
}

// Segments returns the number of segment files, the active one included.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Append logs one encoded frame payload — the output of
// stream.AppendFramePayload: uvarint(eventCount) followed by the packed
// events — and returns its position. The bytes are stored verbatim, so the
// logged frame is exactly the frame the caller sends. Append checks only the
// count prefix and the size limits (at most stream.MaxFrameEvents events and
// stream.MaxFrameBytes bytes, so every logged frame is broadcastable as one
// wire frame); the events themselves are trusted, because the only producer
// is the coordinator's own encoder, and Open still validates every frame in
// full. A zero-count payload returns the current end without writing. The
// record is assembled in a reused scratch buffer and lands in a single
// write, so a concurrent replayer sees whole records only and steady-state
// appends allocate nothing.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken {
		return 0, fmt.Errorf("wal: log failed a write; reopen to recover")
	}
	count, n := binary.Uvarint(payload)
	switch {
	case n <= 0:
		return 0, fmt.Errorf("wal: frame payload has no valid event count")
	case count == 0:
		return l.end, nil
	case count > stream.MaxFrameEvents:
		return 0, fmt.Errorf("wal: frame of %d events exceeds the %d-event frame limit", count, stream.MaxFrameEvents)
	case len(payload) > stream.MaxFrameBytes:
		return 0, fmt.Errorf("wal: frame of %d bytes exceeds the %d-byte frame limit", len(payload), stream.MaxFrameBytes)
	}
	l.recordBuf = binary.AppendUvarint(l.recordBuf[:0], uint64(len(payload)))
	l.recordBuf = append(l.recordBuf, payload...)
	l.recordBuf = binary.LittleEndian.AppendUint32(l.recordBuf, crc32.Checksum(payload, castagnoli))
	if _, err := l.active.Write(l.recordBuf); err != nil {
		// A short write leaves a torn record the next Open truncates away;
		// appending after it would bury valid frames behind garbage.
		l.broken = true
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if l.opts.Sync {
		if err := l.active.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	seg := l.segs[len(l.segs)-1]
	seg.size += int64(len(l.recordBuf))
	seg.frames++
	l.end++
	l.endEvents += int64(count)
	l.cum = append(l.cum, l.endEvents)
	pos := l.end
	if seg.size >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// rotate seals the active segment (synced — a sealed segment is durable) and
// starts the next one. Caller holds mu.
func (l *Log) rotate() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	return l.createSegment(l.end, l.endEvents)
}

// EventsAt returns the cumulative event count through position pos, when pos
// is within the retained range [Base, End].
func (l *Log) EventsAt(pos uint64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pos < l.startPos || pos > l.end {
		return 0, false
	}
	if pos == l.startPos {
		return l.startEvents, true
	}
	return l.cum[pos-l.startPos-1], true
}

// PosForEvents aligns an absolute event count to a frame boundary: the
// position after which exactly events events have been logged. This is how
// the coordinator reconciles a worker's reported position (an event count)
// with the log: a count that falls on no boundary within the retained range
// means the worker's state cannot be healed by replay.
func (l *Log) PosForEvents(events int64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if events == l.startEvents {
		return l.startPos, true
	}
	i := sort.Search(len(l.cum), func(i int) bool { return l.cum[i] >= events })
	if i < len(l.cum) && l.cum[i] == events {
		return l.startPos + uint64(i) + 1, true
	}
	return 0, false
}

// TruncateBefore removes sealed segments every frame of which is at or below
// pos — the retention hook, called with the fleet's minimum acknowledged
// position. The active segment is never removed (its header is what makes the
// log's end durable), so the log always retains at least the frames of the
// newest segment. Returns the number of segments removed.
func (l *Log) TruncateBefore(pos uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	k := 0
	for k < len(l.segs)-1 && l.segs[k+1].base <= pos {
		k++
	}
	if k == 0 {
		return 0, nil
	}
	for i := 0; i < k; i++ {
		if err := os.Remove(l.segs[i].path); err != nil {
			// Stop at the failure: the prefix removed so far is consistent
			// with the advanced base below when we advance only past it.
			k = i
			if k == 0 {
				return 0, fmt.Errorf("wal: truncate: %w", err)
			}
			break
		}
	}
	next := l.segs[k]
	drop := next.base - l.startPos
	l.cum = append(l.cum[:0], l.cum[drop:]...)
	l.startPos, l.startEvents = next.base, next.baseEvents
	l.segs = append(l.segs[:0], l.segs[k:]...)
	return k, nil
}

// RebaseEmpty re-anchors a frameless log at an arbitrary stream position —
// the restore path for bringing a positioned snapshot up on a fresh log
// directory: the blob supplies the state through (pos, events), the log
// records that subsequent frames follow it. Fails if the log holds any
// frames; an established log's history is not rewritable.
func (l *Log) RebaseEmpty(pos uint64, events int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if events < 0 {
		return fmt.Errorf("wal: rebase to negative event count %d", events)
	}
	if l.end != l.startPos || len(l.segs) != 1 {
		return fmt.Errorf("wal: cannot rebase a log holding frames (%d..%d)", l.startPos, l.end)
	}
	if pos == l.startPos && events == l.startEvents {
		return nil
	}
	old := l.segs[0]
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: rebase: %w", err)
	}
	l.segs = l.segs[:0]
	if err := l.createSegment(pos, events); err != nil {
		return err
	}
	l.startPos, l.startEvents = pos, events
	l.end, l.endEvents = pos, events
	l.cum = l.cum[:0]
	if err := os.Remove(old.path); err != nil {
		return fmt.Errorf("wal: rebase: %w", err)
	}
	return nil
}

// ReplayPayloads streams every frame with position > from, in order, to fn:
// the frame's position, its event count, and its payload — valid WSDB frame
// payload bytes, reused between calls (fn must not retain them). The segment
// list and end position are captured once, so replay proceeds without
// blocking appends and delivers exactly the frames that existed at the call.
// A from below Base reports ErrTruncated; so does a segment removed by
// concurrent retention mid-replay.
func (l *Log) ReplayPayloads(from uint64, fn func(pos uint64, events int, payload []byte) error) error {
	type repSeg struct {
		path   string
		base   uint64
		frames int
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if start := l.startPos; from < start {
		l.mu.Unlock()
		return fmt.Errorf("%w: replay from %d, log begins at %d", ErrTruncated, from, start)
	}
	if end := l.end; from > end {
		l.mu.Unlock()
		return fmt.Errorf("wal: replay from %d, log ends at %d", from, end)
	}
	var segs []repSeg
	for _, s := range l.segs {
		if s.base+uint64(s.frames) > from {
			segs = append(segs, repSeg{s.path, s.base, s.frames})
		}
	}
	l.mu.Unlock()

	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			if os.IsNotExist(err) {
				// Retention beat us to this segment; report it as such so the
				// caller retries from a fresher acknowledged position.
				return fmt.Errorf("%w: segment %s removed during replay", ErrTruncated, s.path)
			}
			return fmt.Errorf("wal: replay: %w", err)
		}
		if _, _, err := parseHeader(data); err != nil {
			return fmt.Errorf("wal: replay %s: %w", s.path, err)
		}
		off := headerSize
		for i := 0; i < s.frames; i++ {
			payloadLen, n := binary.Uvarint(data[off:])
			if n <= 0 || payloadLen > stream.MaxFrameBytes || off+n+int(payloadLen)+crcSize > len(data) {
				return fmt.Errorf("wal: replay %s: record %d unreadable", s.path, i)
			}
			payload := data[off+n : off+n+int(payloadLen)]
			want := binary.LittleEndian.Uint32(data[off+n+int(payloadLen) : off+n+int(payloadLen)+crcSize])
			if crc32.Checksum(payload, castagnoli) != want {
				return fmt.Errorf("wal: replay %s: record %d fails its checksum", s.path, i)
			}
			off += n + int(payloadLen) + crcSize
			pos := s.base + uint64(i) + 1
			if pos <= from {
				continue
			}
			// The payload was fully validated at append (or open) time; the
			// count prefix is enough here, with the CRC guarding bit rot.
			count, cn := binary.Uvarint(payload)
			if cn <= 0 {
				return fmt.Errorf("wal: replay %s: record %d: bad event count", s.path, i)
			}
			if err := fn(pos, int(count), payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
