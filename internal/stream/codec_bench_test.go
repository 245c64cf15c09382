package stream

import (
	"bytes"
	"sync"
	"testing"
)

// The decode benchmarks back the acceptance criterion that binary replay
// decodes at >= 2x the text format's throughput on a 1M-event stream:
//
//	go test -run xxx -bench 'Decode' ./internal/stream/
//
// Compare the two b.N=1M wall times (or ns/op at -benchtime 1000000x).

const benchEvents = 1_000_000

var benchData struct {
	once sync.Once
	text []byte
	bin  []byte
}

func benchStreams(b *testing.B) (text, bin []byte) {
	benchData.once.Do(func() {
		s := syntheticStream(42, benchEvents)
		var tb, bb bytes.Buffer
		if err := Write(&tb, s); err != nil {
			b.Fatal(err)
		}
		if err := WriteBinary(&bb, s); err != nil {
			b.Fatal(err)
		}
		benchData.text = tb.Bytes()
		benchData.bin = bb.Bytes()
	})
	return benchData.text, benchData.bin
}

func BenchmarkDecodeText1M(b *testing.B) {
	text, _ := benchStreams(b)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Read(bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		if len(s) != benchEvents {
			b.Fatalf("decoded %d events", len(s))
		}
	}
}

func BenchmarkDecodeBinary1M(b *testing.B) {
	_, bin := benchStreams(b)
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ReadBinary(bytes.NewReader(bin))
		if err != nil {
			b.Fatal(err)
		}
		if len(s) != benchEvents {
			b.Fatalf("decoded %d events", len(s))
		}
	}
}

// BenchmarkDecodeBinaryStreaming measures the replay path an ingestion layer
// actually uses: the frame walker decoding each frame into one reused batch,
// no whole-stream materialization.
func BenchmarkDecodeBinaryStreaming(b *testing.B) {
	_, bin := benchStreams(b)
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	var batch []Event
	for i := 0; i < b.N; i++ {
		total := 0
		err := EachFrame(bin, func(payload []byte) (err error) {
			batch, err = DecodeFramePayload(batch[:0], payload)
			total += len(batch)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		if total != benchEvents {
			b.Fatalf("decoded %d events", total)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchEvents), "ns/event")
}
