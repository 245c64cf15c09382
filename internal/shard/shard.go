// Package shard runs K independently seeded copies of a single-pass counter
// as an ensemble. Every event is routed to every shard, so each shard is a
// complete, unbiased estimator of the same quantity; the ensemble estimate
// combines the K shard estimates with a mean (which preserves unbiasedness
// and divides the estimator variance by K when the shards' randomness is
// independent) or a median-of-means (which trades a little variance for
// robustness against the heavy right tail of inverse-probability estimators).
//
// Sharding serves two distinct operating points:
//
//   - Split budget (K shards of m/K edges each, equal total memory): for
//     patterns whose per-event enumeration cost grows superlinearly with the
//     reservoir size (triangles and especially 4-cliques, where completion
//     search is quadratic in the sampled neighborhood), K small reservoirs do
//     strictly less total work than one large one — a throughput win even on
//     a single core, and an embarrassingly parallel one on many.
//   - Full budget (K shards of m edges each, K times the memory): a pure
//     variance-reduction ensemble; the mean of K independent estimates has
//     1/K of the single-counter variance.
//
// The ensemble is driven on a worker pool: one goroutine per shard, fed
// through buffered channels. SubmitBatch broadcasts a batch by reference to
// all shards (counters only read events), so the per-event ingestion cost is
// amortized across the batch; Submit sends one event by value and allocates
// nothing. A one-shard ensemble is the single-worker ingestion loop: one
// counter owned by one goroutine, fed by many producers, read lock-free.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/combine"
	"repro/internal/stream"
)

// Counter is the single-pass estimator a shard drives. It matches the surface
// of core.Counter, local.Counter, and the sampling baselines.
type Counter interface {
	Process(ev stream.Event)
	Estimate() float64
}

// BatchCounter is optionally implemented by counters with a batched ingest
// path; shards use it when available.
type BatchCounter interface {
	Counter
	ProcessBatch(evs []stream.Event)
}

// Checkpointable is optionally implemented by counters whose complete state
// serializes to bytes (core.Counter, local.Counter). Ensemble.Snapshot
// requires every shard counter to implement it.
type Checkpointable interface {
	Counter
	Checkpoint() ([]byte, error)
}

// VectorCounter is optionally implemented by counters that maintain several
// estimates side by side (core.Counter: one per counted pattern). When every
// shard counter implements it, each worker publishes the whole vector and the
// ensemble combines it index by index, so one shard fleet serves P pattern
// queries at once. Estimate() must equal index 0 of the vector.
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
var ErrClosed = errors.New("shard: ensemble closed")

// SplitBudget divides a total reservoir budget across shards as evenly as
// possible: each shard gets total/shards edges and the first total%shards
// shards get one extra, so the budgets sum to exactly total. Every
// split-budget ensemble construction (the facade's NewShardedCounter, the
// throughput experiment) uses this single definition.
func SplitBudget(total, shards int) []int {
	if shards < 1 {
		return nil
	}
	out := make([]int, shards)
	for i := range out {
		out[i] = total / shards
		if i < total%shards {
			out[i]++
		}
	}
	return out
}

// envelope is one feed message: a single event (single set), a batch of
// events (plain or pooled), or a quiesce barrier when sync is non-nil. FIFO
// order on the feed is what makes the barrier a barrier: when the worker
// reaches it, every previously enqueued event has been applied.
type envelope struct {
	ev     stream.Event // the event, when single
	single bool
	batch  []stream.Event
	pooled *stream.Batch // non-nil: batch aliases pooled.Events; release after applying
	sync   chan struct{} // non-nil: barrier; worker closes it and continues
}

// worker owns one shard: its counter, its feed channel, and its published
// estimate vector (length 1 for plain counters). The counter is touched only
// by the worker goroutine — except inside a Quiesce barrier, where the worker
// is provably parked.
type worker struct {
	counter   Counter
	batched   BatchCounter  // non-nil when counter implements BatchCounter
	vector    VectorCounter // non-nil when counter implements VectorCounter
	feed      chan envelope
	estimates []atomic.Uint64 // float64 bits per estimate index
	scratch   []float64       // worker-only: reused EstimatesInto buffer
	processed atomic.Int64
	done      chan struct{}
}

// publish stores the counter's current estimate(s); called from the worker
// goroutine (and once before it starts).
func (w *worker) publish() {
	if w.vector == nil {
		w.estimates[0].Store(math.Float64bits(w.counter.Estimate()))
		return
	}
	w.scratch = w.vector.EstimatesInto(w.scratch[:0])
	for i := range w.estimates {
		w.estimates[i].Store(math.Float64bits(w.scratch[i]))
	}
}

func (w *worker) run() {
	defer close(w.done)
	for env := range w.feed {
		if env.sync != nil {
			close(env.sync)
			continue
		}
		n := len(env.batch)
		switch {
		case env.single:
			w.counter.Process(env.ev)
			n = 1
		case w.batched != nil:
			w.batched.ProcessBatch(env.batch)
		default:
			for _, ev := range env.batch {
				w.counter.Process(ev)
			}
		}
		w.processed.Add(int64(n))
		if env.pooled != nil {
			env.pooled.Release()
		}
		// One publication per envelope: batches amortize the atomic stores.
		w.publish()
	}
}

// Ensemble drives K shard counters concurrently and combines their
// estimates. Construct with New; the zero value is not usable.
type Ensemble struct {
	workers []*worker
	combine combine.Func
	// numEstimates is the per-shard estimate vector width: 1 for plain
	// counters, the pattern count when every shard is a VectorCounter.
	numEstimates int
	// base is the stream position at construction (WithBasePosition):
	// non-zero for restored ensembles, so Processed reports an absolute
	// position.
	base int64
	// spare caches one K-slot slice for EstimateAt to hand the combiner, so
	// an estimate reader allocates nothing per read; a reader that finds it
	// taken by a concurrent one makes its own. A field rather than a
	// sync.Pool: a pool is registered globally and would keep a closed
	// ensemble, counters included, alive across the next collection.
	spare atomic.Pointer[[]float64]

	mu     sync.Mutex
	closed bool
}

// Option configures an Ensemble.
type Option func(*config)

type config struct {
	buffer  int
	combine combine.Func
	base    int64
}

// WithBuffer sets each shard's feed-channel buffer, measured in envelopes:
// one Submit event or one whole batch (default 4).
func WithBuffer(n int) Option {
	return func(c *config) { c.buffer = n }
}

// WithCombiner replaces the default combine.Mean combiner.
func WithCombiner(fn combine.Func) Option {
	return func(c *config) { c.combine = fn }
}

// WithBasePosition sets the ensemble's starting stream position: the number
// of events its counters had already absorbed before construction. Restore
// paths pass the snapshot's recorded position so Processed stays an absolute
// position across checkpoint/restore cycles — what lets a cluster coordinator
// tell a restored worker (position preserved) from one restarted empty
// (position zero) and replay each from the right log offset.
func WithBasePosition(n int64) Option {
	return func(c *config) { c.base = n }
}

// New starts an ensemble over the given counters, one worker goroutine per
// counter. The counters must be independently seeded for the ensemble's
// variance reduction to hold, and must not be touched by the caller
// afterwards.
func New(counters []Counter, opts ...Option) (*Ensemble, error) {
	if len(counters) == 0 {
		return nil, fmt.Errorf("shard: ensemble needs at least one counter")
	}
	cfg := config{buffer: 4, combine: combine.Mean}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.buffer < 1 {
		cfg.buffer = 1
	}
	e := &Ensemble{combine: cfg.combine, numEstimates: 1, base: cfg.base}
	for i, c := range counters {
		if c == nil {
			return nil, fmt.Errorf("shard: nil counter")
		}
		n := 1
		if vc, ok := c.(VectorCounter); ok {
			n = vc.NumEstimates()
		}
		if i == 0 {
			e.numEstimates = n
		} else if n != e.numEstimates {
			return nil, fmt.Errorf("shard: counter %d publishes %d estimates, counter 0 publishes %d; every shard must count the same patterns", i, n, e.numEstimates)
		}
		w := &worker{
			counter:   c,
			feed:      make(chan envelope, cfg.buffer),
			estimates: make([]atomic.Uint64, n),
			scratch:   make([]float64, 0, n),
			done:      make(chan struct{}),
		}
		if bc, ok := c.(BatchCounter); ok {
			w.batched = bc
		}
		if vc, ok := c.(VectorCounter); ok {
			w.vector = vc
		}
		w.publish()
		e.workers = append(e.workers, w)
	}
	for _, w := range e.workers {
		go w.run()
	}
	return e, nil
}

// Shards returns the number of shard counters.
func (e *Ensemble) Shards() int { return len(e.workers) }

// SubmitBatch broadcasts a batch of events to every shard, blocking while any
// shard's buffer is full. The ensemble takes ownership of the slice: the
// caller must not mutate it after a successful SubmitBatch (all shards read
// the same backing array). It returns ErrClosed after Close. Zero-length
// batches are accepted and ignored.
func (e *Ensemble) SubmitBatch(evs []stream.Event) error {
	return e.send(envelope{batch: evs})
}

// Submit enqueues a single event on every shard, blocking while any shard's
// buffer is full. The event travels by value, so Submit allocates nothing;
// SubmitBatch still amortizes the channel transfer and the estimate
// publication over a whole batch. It returns ErrClosed after Close.
func (e *Ensemble) Submit(ev stream.Event) error {
	return e.send(envelope{ev: ev, single: true})
}

// SubmitPooled broadcasts a pooled batch to every shard by reference: the
// ensemble takes the producer's reference, retains K-1 more (one per shard),
// and each worker releases after applying, so the buffer returns to its pool
// when the slowest shard is done — no per-shard copy of the events. The
// ensemble takes ownership in every case; on error (ErrClosed) the batch is
// released immediately. Empty batches are released and ignored.
func (e *Ensemble) SubmitPooled(b *stream.Batch) error {
	if len(b.Events) == 0 {
		b.Release()
		return e.send(envelope{})
	}
	err := e.send(envelope{batch: b.Events, pooled: b})
	if err != nil {
		b.Release()
	}
	return err
}

// send broadcasts env to every shard's feed, or returns ErrClosed after
// Close. An envelope carrying no event only reports the closed state, so
// producers polling with empty batches observe shutdown. A pooled batch gains
// one reference per extra shard, since every worker releases it.
func (e *Ensemble) send(env envelope) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if !env.single && len(env.batch) == 0 {
		return nil
	}
	if env.pooled != nil {
		env.pooled.Retain(len(e.workers) - 1)
	}
	// Holding the lock across the sends keeps submissions and Close
	// race-free (Close waits for the lock before closing the feeds) and
	// keeps envelopes in the same order on every shard.
	for _, w := range e.workers {
		w.feed <- env
	}
	return nil
}

// Estimate combines the shards' most recently published (primary) estimates.
// Safe for concurrent use; each shard's contribution lags Submit by at most
// its buffer.
func (e *Ensemble) Estimate() float64 { return e.EstimateAt(0) }

// NumEstimates returns the per-shard estimate vector width: 1 for plain
// counters, the pattern count for multi-pattern shards.
func (e *Ensemble) NumEstimates() int { return e.numEstimates }

// EstimateAt combines the shards' most recently published estimates at index
// i (a pattern index, in the shards' Patterns order, for multi-pattern
// counters). Safe for concurrent use.
func (e *Ensemble) EstimateAt(i int) float64 {
	xs := e.spare.Swap(nil)
	if xs == nil {
		s := make([]float64, len(e.workers))
		xs = &s
	}
	for j, w := range e.workers {
		(*xs)[j] = math.Float64frombits(w.estimates[i].Load())
	}
	x := e.combine(*xs)
	e.spare.Store(xs)
	return x
}

// EstimateVector returns the combined estimate for every index, primary
// first. Each index combines that estimate across all shards with the
// ensemble's combiner. Indexes are individually atomic; Quiesce first for a
// vector consistent at a single stream position.
func (e *Ensemble) EstimateVector() []float64 {
	out := make([]float64, e.numEstimates)
	for i := range out {
		out[i] = e.EstimateAt(i)
	}
	return out
}

// Estimates returns each shard's most recently published primary estimate, in
// shard order — the spread is an empirical variance check.
func (e *Ensemble) Estimates() []float64 {
	xs := make([]float64, len(e.workers))
	for i, w := range e.workers {
		xs[i] = math.Float64frombits(w.estimates[0].Load())
	}
	return xs
}

// Processed returns the absolute stream position: the base position (zero
// for fresh ensembles, the snapshot's recorded position for restored ones)
// plus the number of events applied by every shard since construction (the
// minimum across shards — events submitted but still in flight on some shard
// are not counted).
func (e *Ensemble) Processed() int64 {
	if len(e.workers) == 0 {
		return e.base
	}
	min := e.workers[0].processed.Load()
	for _, w := range e.workers[1:] {
		if n := w.processed.Load(); n < min {
			min = n
		}
	}
	return e.base + min
}

// Quiesce drains every event submitted so far on every shard and then calls
// fn once per shard with exclusive access to its counter: no new submissions
// are accepted while the callbacks run (submitters block on the ensemble
// lock) and every worker goroutine is parked at its barrier. fn must not
// retain the counters. The barriers are broadcast before any is awaited, so
// the shards drain concurrently.
func (e *Ensemble) Quiesce(fn func(i int, c Counter) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	acks := make([]chan struct{}, len(e.workers))
	for i, w := range e.workers {
		acks[i] = make(chan struct{})
		w.feed <- envelope{sync: acks[i]}
	}
	for _, ack := range acks {
		<-ack
	}
	// Every worker has applied its whole backlog and is parked reading an
	// empty feed; the channel-close handoff makes their counter mutations
	// visible here, and holding mu keeps producers out until fn returns.
	for i, w := range e.workers {
		if err := fn(i, w.counter); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains every event submitted so far on every shard and returns: a
// pure position barrier. After it returns, Processed and the estimate
// reflect every prior Submit. Callers that only need "has the ensemble
// applied my stream?" should prefer this over Snapshot, which pays for a
// full state serialization to get the same drain.
func (e *Ensemble) Flush() error {
	return e.Quiesce(func(int, Counter) error { return nil })
}

// EnsembleSnapshot is the serialized form of a whole ensemble: one encoded
// counter snapshot per shard, in shard order. The combiner, budgets and
// weight functions are configuration, not state — they are re-supplied at
// restore time just as in core.Restore. The facade's
// RestoreShardedCounterChecked is the ensemble restore: it rebuilds each
// shard's counter and starts New at the recorded Position.
type EnsembleSnapshot struct {
	Version int               `json:"version"`
	Shards  []json.RawMessage `json:"shards"`
	// Position is the absolute stream position the snapshot was taken at
	// (Processed at the quiesce point). A restore seeds the rebuilt
	// ensemble's base with it, so positions survive checkpoint/restore — the anchor the
	// cluster write-ahead log replays from. Omitted (zero) in snapshots
	// predating the field, which restore at position zero as before.
	Position int64 `json:"position,omitempty"`
}

// ensembleSnapshotVersion guards the wire format.
const ensembleSnapshotVersion = 1

// Snapshot quiesces the ensemble and returns its serialized state. Every
// shard counter must implement Checkpointable (the WSD counters do); the
// ensemble keeps running afterwards.
func (e *Ensemble) Snapshot() ([]byte, error) {
	snap := EnsembleSnapshot{
		Version: ensembleSnapshotVersion,
		Shards:  make([]json.RawMessage, len(e.workers)),
	}
	err := e.Quiesce(func(i int, c Counter) error {
		if i == 0 {
			// Every worker is parked at its barrier here, so the minimum
			// processed count is exact — the single stream position the whole
			// snapshot describes.
			snap.Position = e.Processed()
		}
		ck, ok := c.(Checkpointable)
		if !ok {
			return fmt.Errorf("shard: counter %d (%T) does not support checkpointing", i, c)
		}
		b, err := ck.Checkpoint()
		if err != nil {
			return fmt.Errorf("shard: checkpoint counter %d: %w", i, err)
		}
		snap.Shards[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(snap)
}

// DecodeEnsembleSnapshot parses and validates a Snapshot blob without
// rebuilding counters, so callers can inspect (or reject) a snapshot before
// committing to a restore.
func DecodeEnsembleSnapshot(data []byte) (*EnsembleSnapshot, error) {
	var snap EnsembleSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("shard: decode ensemble snapshot: %w", err)
	}
	if snap.Version != ensembleSnapshotVersion {
		return nil, fmt.Errorf("shard: ensemble snapshot version %d unsupported (want %d)", snap.Version, ensembleSnapshotVersion)
	}
	if len(snap.Shards) == 0 {
		return nil, fmt.Errorf("shard: ensemble snapshot holds no shards")
	}
	return &snap, nil
}

// Close drains all pending events, stops the workers, and returns the final
// combined estimate. Subsequent submissions fail with ErrClosed; Close is
// idempotent.
func (e *Ensemble) Close() float64 {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		for _, w := range e.workers {
			close(w.feed)
		}
	}
	e.mu.Unlock()
	for _, w := range e.workers {
		<-w.done
	}
	return e.Estimate()
}
