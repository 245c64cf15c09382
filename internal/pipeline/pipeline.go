// Package pipeline wraps a single-pass counter in a concurrent ingestion
// loop. The samplers are deliberately single-threaded (one-pass streaming
// algorithms with sequential state), so the pipeline owns the counter on one
// goroutine, accepts events from many producers through a buffered channel,
// and publishes the running estimate for lock-free concurrent readers — the
// shape a real deployment (e.g. a feed of social-network connection events)
// needs.
//
// Two ingestion paths are offered. Submit enqueues one event and is the
// simplest integration point. SubmitBatch enqueues a whole slice and is the
// fast path: the channel transfer, the closed-state check, and the atomic
// estimate publication are paid once per batch instead of once per event,
// and counters implementing BatchCounter receive the slice in a single call.
package pipeline

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// Counter is the single-pass estimator the pipeline drives.
type Counter interface {
	Process(ev stream.Event)
	Estimate() float64
}

// BatchCounter is optionally implemented by counters with a batched ingest
// path (core.Counter, local.Counter). ProcessBatch must be equivalent to
// calling Process once per event, in order.
type BatchCounter interface {
	Counter
	ProcessBatch(evs []stream.Event)
}

// Checkpointable is optionally implemented by counters whose complete state
// serializes to bytes (core.Counter, local.Counter). Snapshot requires it.
type Checkpointable interface {
	Counter
	Checkpoint() ([]byte, error)
}

// VectorCounter is optionally implemented by counters that maintain several
// estimates side by side (core.Counter: one per counted pattern). The
// processor publishes every estimate after each envelope, so concurrent
// readers get the whole vector lock-free through EstimateAt. Estimate() must
// equal index 0 of the vector (the primary estimate).
type VectorCounter interface {
	Counter
	// NumEstimates returns the (fixed) number of estimates.
	NumEstimates() int
	// EstimatesInto appends the current estimates to dst and returns it; it
	// must not allocate when dst has the capacity.
	EstimatesInto(dst []float64) []float64
}

// ErrClosed is returned by Submit, SubmitBatch, Quiesce and Snapshot after
// Close.
var ErrClosed = errors.New("pipeline: processor closed")

// envelope is one channel message: a single event, a batch (plain or
// pooled), or a quiesce barrier. Keeping all of them in one channel preserves
// total FIFO order, which is what makes the barrier a barrier: when the
// worker reaches it, every previously enqueued event has been applied.
type envelope struct {
	ev     stream.Event
	batch  []stream.Event
	pooled *stream.Batch // non-nil: batch aliases pooled.Events; release after applying
	single bool
	sync   chan struct{} // non-nil: barrier; worker closes it and continues
}

// Processor runs a counter on a dedicated goroutine.
type Processor struct {
	counter   Counter
	batched   BatchCounter  // non-nil when counter implements BatchCounter
	vector    VectorCounter // non-nil when counter implements VectorCounter
	events    chan envelope
	estimates []atomic.Uint64 // float64 bits of the latest estimates; len 1 for plain counters
	scratch   []float64       // worker-only: reused EstimatesInto buffer
	processed atomic.Int64

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// New starts a processor over the counter with the given channel buffer.
// The counter must not be touched by the caller afterwards.
func New(c Counter, buffer int) *Processor {
	if buffer < 1 {
		buffer = 1
	}
	p := &Processor{
		counter: c,
		events:  make(chan envelope, buffer),
		done:    make(chan struct{}),
	}
	if bc, ok := c.(BatchCounter); ok {
		p.batched = bc
	}
	n := 1
	if vc, ok := c.(VectorCounter); ok {
		p.vector = vc
		n = vc.NumEstimates()
	}
	p.estimates = make([]atomic.Uint64, n)
	p.scratch = make([]float64, 0, n)
	p.publish()
	go p.run()
	return p
}

// publish stores the counter's current estimate(s) for lock-free readers.
// Called from the worker goroutine (and once before it starts).
func (p *Processor) publish() {
	if p.vector == nil {
		p.estimates[0].Store(math.Float64bits(p.counter.Estimate()))
		return
	}
	p.scratch = p.vector.EstimatesInto(p.scratch[:0])
	for i := range p.estimates {
		p.estimates[i].Store(math.Float64bits(p.scratch[i]))
	}
}

func (p *Processor) run() {
	defer close(p.done)
	for env := range p.events {
		if env.sync != nil {
			close(env.sync)
			continue
		}
		if env.single {
			p.counter.Process(env.ev)
			p.processed.Add(1)
		} else {
			if p.batched != nil {
				p.batched.ProcessBatch(env.batch)
			} else {
				for _, ev := range env.batch {
					p.counter.Process(ev)
				}
			}
			p.processed.Add(int64(len(env.batch)))
			if env.pooled != nil {
				env.pooled.Release()
			}
		}
		// One publication per envelope: batches amortize the atomic stores.
		p.publish()
	}
}

// Submit enqueues one event, blocking while the buffer is full. It returns
// ErrClosed after Close.
func (p *Processor) Submit(ev stream.Event) error {
	return p.send(envelope{ev: ev, single: true})
}

// SubmitBatch enqueues a slice of events to be applied in order, blocking
// while the buffer is full. It returns ErrClosed after Close. The processor
// takes ownership of the slice: the caller must not mutate it after a
// successful SubmitBatch. Zero-length batches are accepted and ignored.
func (p *Processor) SubmitBatch(evs []stream.Event) error {
	if len(evs) == 0 {
		// Still honor the closed state so callers polling with empty batches
		// observe shutdown.
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return nil
	}
	return p.send(envelope{batch: evs})
}

// SubmitPooled enqueues a pooled batch, blocking while the buffer is full.
// The processor takes ownership of the batch's reference in every case: after
// the events are applied it is released back to its pool, and on error
// (ErrClosed) it is released immediately, so the producer loop is simply
// Get-fill-SubmitPooled with no cleanup path. Empty batches are released and
// ignored.
func (p *Processor) SubmitPooled(b *stream.Batch) error {
	if len(b.Events) == 0 {
		b.Release()
		return p.SubmitBatch(nil)
	}
	err := p.send(envelope{batch: b.Events, pooled: b})
	if err != nil {
		b.Release()
	}
	return err
}

func (p *Processor) send(env envelope) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	// Holding the lock across the send keeps Submit/Close race-free: Close
	// waits for the lock before closing the channel, so no send can hit a
	// closed channel.
	p.events <- env
	p.mu.Unlock()
	return nil
}

// Estimate returns the most recently published estimate (the primary one for
// vector counters). Safe for concurrent use; it lags ingestion by at most the
// channel buffer in envelopes, where an envelope is one Submit event or one
// whole SubmitBatch slice.
func (p *Processor) Estimate() float64 {
	return math.Float64frombits(p.estimates[0].Load())
}

// NumEstimates returns how many estimates the processor publishes: 1 for
// plain counters, the pattern count for a multi-pattern counter.
func (p *Processor) NumEstimates() int { return len(p.estimates) }

// EstimateAt returns estimate i of the most recently published vector. For a
// multi-pattern counter, i indexes its Patterns order. Safe for concurrent
// use. Estimates within one read may straddle an envelope boundary (each slot
// is individually atomic); Quiesce first for a vector consistent at a single
// stream position.
func (p *Processor) EstimateAt(i int) float64 {
	return math.Float64frombits(p.estimates[i].Load())
}

// EstimateVector returns the most recently published estimates as a fresh
// slice, primary first. See EstimateAt for the consistency caveat.
func (p *Processor) EstimateVector() []float64 {
	out := make([]float64, len(p.estimates))
	for i := range p.estimates {
		out[i] = math.Float64frombits(p.estimates[i].Load())
	}
	return out
}

// Processed returns the number of events applied so far.
func (p *Processor) Processed() int64 { return p.processed.Load() }

// Quiesce drains every event submitted so far and then calls fn with
// exclusive access to the counter: no new submissions are accepted while fn
// runs (submitters block) and the worker goroutine is parked. fn must not
// retain the counter. Quiesce is how state is read or checkpointed
// consistently without stopping the processor for good.
func (p *Processor) Quiesce(fn func(c Counter) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	// The barrier rides the event channel, so FIFO order guarantees all
	// previously enqueued envelopes are applied before it trips. The
	// channel-close handoff gives the happens-before edge that makes the
	// worker's counter mutations visible here; holding mu keeps every
	// producer out until fn is done.
	ack := make(chan struct{})
	p.events <- envelope{sync: ack}
	<-ack
	return fn(p.counter)
}

// Snapshot quiesces the processor and returns the wrapped counter's encoded
// snapshot. The counter must implement Checkpointable (the WSD counters do);
// the processor keeps running afterwards. Restore is construction: rebuild
// the counter from the snapshot (e.g. core.Restore) and wrap it in New.
func (p *Processor) Snapshot() ([]byte, error) {
	var out []byte
	err := p.Quiesce(func(c Counter) error {
		ck, ok := c.(Checkpointable)
		if !ok {
			return fmt.Errorf("pipeline: counter %T does not support checkpointing", c)
		}
		b, err := ck.Checkpoint()
		out = b
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close drains all pending events, stops the worker, and returns the final
// estimate. Subsequent Submit calls fail with ErrClosed; Close is idempotent.
func (p *Processor) Close() float64 {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.events)
	}
	p.mu.Unlock()
	<-p.done
	return p.Estimate()
}
