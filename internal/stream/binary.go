package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/graph"
)

// Binary stream format. The text format (Write/Read) is the interchange
// format; this is the fast path for replay and for the wire: a fixed header
// followed by length-prefixed frames of varint-encoded events. Every consumer
// holds the whole body in memory and walks its frames in place (EachFrame),
// so frames map 1:1 onto pooled batches (the serving worker) or decode into
// one exactly sized slice (DecodeBinary); there is no io.Reader frame reader.
//
//	header:  "WSDB" version(1 byte)
//	frame:   uvarint(payloadBytes) payload
//	payload: uvarint(eventCount) event*
//	event:   uvarint(u<<1 | op) uvarint(v)
//
// Vertex IDs are 32-bit; the op bit rides the low bit of u so the common
// insert event costs nothing extra. Frames are self-delimiting, which makes
// the format streamable and lets a corrupt tail be detected without trusting
// anything beyond the current frame.

// binaryMagic identifies a binary stream file; it is also what ReadAuto
// sniffs. No valid text stream starts with these bytes.
var binaryMagic = [4]byte{'W', 'S', 'D', 'B'}

// binaryVersion guards the frame encoding.
const binaryVersion = 1

const (
	// DefaultFrameEvents is the batch size AppendBinary cuts frames at: large
	// enough to amortize the length prefix and per-frame call overhead,
	// small enough that a streaming consumer gets work promptly.
	DefaultFrameEvents = 4096
	// MaxFrameBytes bounds a frame's declared payload so a corrupt or
	// hostile length prefix cannot force a huge allocation. 16 MiB is ~1.6M
	// worst-case events, far above DefaultFrameEvents frames. Exported so the
	// write-ahead log (internal/wal), which stores frame payloads verbatim,
	// applies the same bound when reading records back.
	MaxFrameBytes = 16 << 20
	// MaxFrameEvents is the largest batch a producer packs into one frame;
	// bigger batches are split. At the 10-byte worst case per event
	// (two maximal 32-bit varints) this stays under MaxFrameBytes, so a
	// written frame is always readable. The cluster coordinator, which
	// canonicalizes a body and logs it, splits its batches here.
	MaxFrameEvents = 1 << 20
)

// PosHeader is the HTTP header that stamps an ingest body with the absolute
// stream position of its first event, making the request idempotent: a
// server that has already accepted events at or past the stamped positions
// skips them as duplicates instead of double-applying a replayed or
// duplicated delivery. It lives here — with the wire format — because the
// producer (internal/cluster) and the consumer (internal/serve) must agree
// on it but cannot import each other.
const PosHeader = "X-Wsd-Stream-Pos"

// AppendBinary appends the binary stream of evs to dst — the header, then
// frames of DefaultFrameEvents events — and returns the extended slice. An
// empty evs is a header alone: a zero-event frame is legal to read but never
// written.
func AppendBinary(dst []byte, evs []Event) []byte {
	dst = AppendBinaryHeader(dst)
	for lo := 0; lo < len(evs); lo += DefaultFrameEvents {
		frame := evs[lo:min(lo+DefaultFrameEvents, len(evs))]
		// Encode the payload behind room for a 5-byte length prefix (a
		// DefaultFrameEvents payload is under 41 KB), then write the prefix
		// and slide the payload down to meet it: no scratch buffer.
		at := len(dst)
		dst = AppendFramePayload(append(dst, make([]byte, binary.MaxVarintLen32)...), frame)
		size := len(dst) - at - binary.MaxVarintLen32
		n := binary.PutUvarint(dst[at:], uint64(size))
		copy(dst[at+n:], dst[at+binary.MaxVarintLen32:])
		dst = dst[:at+n+size]
	}
	return dst
}

// AppendFramePayload encodes one frame payload — uvarint(eventCount) followed
// by the varint-packed events — appended to dst, and returns the extended
// slice. It is the single definition of the payload encoding, shared by
// AppendBinary and by the cluster coordinator, which encodes each frame once
// and hands the same bytes to the wire body and to the write-ahead log
// (internal/wal), so a logged frame replays verbatim onto the wire.
func AppendFramePayload(dst []byte, evs []Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for _, ev := range evs {
		op := uint64(0)
		if ev.Op == Delete {
			op = 1
		}
		dst = binary.AppendUvarint(dst, uint64(ev.Edge.U)<<1|op)
		dst = binary.AppendUvarint(dst, uint64(ev.Edge.V))
	}
	return dst
}

// IsBinary reports whether data starts a binary stream: the prefix test every
// consumer holding a whole body uses to pick a decoder.
func IsBinary(data []byte) bool { return bytes.HasPrefix(data, binaryMagic[:]) }

// EachFrame walks the binary stream in data: it checks the header, then hands
// each frame's payload (a subslice of data) to fn in stream order and stops at
// fn's first error. A length above MaxFrameBytes or past the end of data is an
// error; a torn tail wraps io.ErrUnexpectedEOF.
func EachFrame(data []byte, fn func(payload []byte) error) error {
	if len(data) < 5 {
		return fmt.Errorf("stream: read binary header: %w", torn(data))
	}
	if !IsBinary(data) {
		return fmt.Errorf("stream: bad binary magic %q", data[:4])
	}
	if data[4] != binaryVersion {
		return fmt.Errorf("stream: binary version %d unsupported (want %d)", data[4], binaryVersion)
	}
	for data = data[5:]; len(data) > 0; {
		payloadLen, n := binary.Uvarint(data)
		if n <= 0 {
			// A torn or overlong prefix: let the byte-wise reader name it.
			_, err := binary.ReadUvarint(bytes.NewReader(data))
			return fmt.Errorf("stream: read frame length: %w", err)
		}
		if payloadLen > MaxFrameBytes {
			return fmt.Errorf("stream: frame of %d bytes exceeds the %d-byte limit", payloadLen, MaxFrameBytes)
		}
		data = data[n:]
		if uint64(len(data)) < payloadLen {
			return fmt.Errorf("stream: read frame payload: %w", torn(data))
		}
		if err := fn(data[:payloadLen]); err != nil {
			return err
		}
		data = data[payloadLen:]
	}
	return nil
}

// torn is the error a short read of rest ends in, as io.ReadFull reports it.
func torn(rest []byte) error {
	if len(rest) == 0 {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// DecodeBinary decodes the binary stream in data, appending its events to dst,
// which grows at most once: a first pass sums the frames' counts, each capped
// at payload/2 so a hostile count cannot over-allocate. On error dst is
// returned at its original length.
func DecodeBinary(dst []Event, data []byte) ([]Event, error) {
	total := 0
	// Sizing only: a bad frame ends the count, and the decoding pass reports
	// the first error in stream order.
	_ = EachFrame(data, func(payload []byte) error {
		count, n := binary.Uvarint(payload)
		if n <= 0 || count > uint64(len(payload)-n)/2 {
			return io.EOF
		}
		total += int(count)
		return nil
	})
	base := len(dst)
	if cap(dst)-base < total {
		dst = append(make([]Event, 0, base+total), dst...)
	}
	err := EachFrame(data, func(payload []byte) (err error) {
		dst, err = DecodeFramePayload(dst, payload)
		return err
	})
	if err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// uvarint3 decodes a one- to three-byte uvarint (any value below 2^21) without
// a call and returns n == 0 for anything else, where the caller falls back to
// binary.Uvarint: together they decode every input as binary.Uvarint does.
func uvarint3(buf []byte) (x uint64, n int) {
	if len(buf) >= 3 {
		switch b0, b1, b2 := uint64(buf[0]), uint64(buf[1]), uint64(buf[2]); {
		case b0 < 0x80:
			return b0, 1
		case b1 < 0x80:
			return b0&0x7f | b1<<7, 2
		case b2 < 0x80:
			return b0&0x7f | (b1&0x7f)<<7 | b2<<14, 3
		}
	}
	return 0, 0
}

// DecodeFramePayload decodes one frame payload — the bytes following a
// frame's length prefix — appending the events to dst and returning the
// extended slice. It validates the event count against the payload size,
// every event's varint bounds and the trailing bytes, so the write-ahead log
// verifies logged frames with exactly the wire decoder. On error dst is
// returned at its original length.
func DecodeFramePayload(dst []Event, payload []byte) ([]Event, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("stream: corrupt frame: bad event count")
	}
	payload = payload[n:]
	// Each event is at least two bytes, so a count above payload/2 is
	// corrupt; checking before growing dst keeps hostile counts cheap.
	if count > uint64(len(payload))/2 {
		return dst, fmt.Errorf("stream: corrupt frame: %d events in %d payload bytes", count, len(payload))
	}
	base := len(dst)
	dst = slices.Grow(dst, int(count))[:base+int(count)]
	for i := base; i < len(dst); i++ {
		opU, n := uvarint3(payload)
		if n == 0 {
			opU, n = binary.Uvarint(payload)
		}
		if n <= 0 {
			return dst[:base], fmt.Errorf("stream: corrupt frame: truncated event %d", i-base)
		}
		payload = payload[n:]
		v, n := uvarint3(payload)
		if n == 0 {
			v, n = binary.Uvarint(payload)
		}
		if n <= 0 {
			return dst[:base], fmt.Errorf("stream: corrupt frame: truncated event %d", i-base)
		}
		payload = payload[n:]
		u := opU >> 1
		if u > uint64(^graph.VertexID(0)) || v > uint64(^graph.VertexID(0)) {
			return dst[:base], fmt.Errorf("stream: corrupt frame: vertex id overflows 32 bits in event %d", i-base)
		}
		// The low bit is the op: Insert is 0, Delete is 1.
		dst[i] = Event{Op: Op(opU & 1), Edge: graph.NewEdge(graph.VertexID(u), graph.VertexID(v))}
	}
	if len(payload) != 0 {
		return dst[:base], fmt.Errorf("stream: corrupt frame: %d trailing bytes", len(payload))
	}
	return dst, nil
}

// WriteBinary serializes the stream in the binary format (AppendBinary) with
// one write.
func WriteBinary(w io.Writer, s Stream) error {
	if _, err := w.Write(AppendBinary(nil, s)); err != nil {
		return fmt.Errorf("stream: write binary stream: %w", err)
	}
	return nil
}

// ReadBinary parses a whole binary stream produced by WriteBinary (or any
// other framing of AppendFramePayload payloads), copied into memory once.
func ReadBinary(r io.Reader) (Stream, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("stream: read binary stream: %w", err)
	}
	return DecodeBinary(nil, buf.Bytes())
}

// AppendBinaryHeader appends the binary stream header (magic plus version) to
// dst. Producers that assemble a binary body from already-encoded frame
// payloads — the cluster coordinator replaying write-ahead-log records to a
// lagging worker — use it to build a valid stream without re-encoding events.
func AppendBinaryHeader(dst []byte) []byte {
	return append(append(dst, binaryMagic[:]...), binaryVersion)
}

// ReadAuto parses a stream in either format, sniffing the binary magic. Text
// streams (including plain edge lists) fall through to Read, so every tool
// that loads streams accepts both transparently.
func ReadAuto(r io.Reader) (Stream, error) {
	br := bufio.NewReader(r)
	// The peek replays: whichever decoder runs sees the complete stream.
	if head, err := br.Peek(len(binaryMagic)); err == nil && IsBinary(head) {
		return ReadBinary(br)
	}
	return Read(br)
}
