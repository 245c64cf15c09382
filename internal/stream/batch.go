package stream

import (
	"sync"
	"sync/atomic"
)

// Batch is a refcounted, pool-recycled batch of events: the zero-allocation
// currency between stream producers (the binary decoder, socket readers) and
// the ingestion layer (shard.Ensemble, of one or more workers). A producer gets
// a Batch from a BatchPool, fills Events, and hands it to a pooled submit
// (SubmitPooled); the consumer releases it after applying the events, which
// returns the buffer to the pool once every holder is done. The shard
// ensemble broadcasts one Batch to K workers by taking K references instead
// of copying the events K times.
//
// The events are read-only while more than one reference is live.
type Batch struct {
	Events []Event

	refs atomic.Int32
	pool *BatchPool
}

// Retain adds n additional references, one per extra concurrent consumer.
func (b *Batch) Retain(n int) { b.refs.Add(int32(n)) }

// Release drops one reference; the last release returns the buffer to its
// pool. Releasing more than retained panics (refcount underflow), which
// surfaces double-release bugs immediately instead of as corrupted batches.
func (b *Batch) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		if b.pool != nil {
			b.pool.put(b)
		}
	case n < 0:
		panic("stream: Batch released more times than retained")
	}
}

// BatchPool recycles Batches. The zero value is ready to use; one pool per
// producer is typical.
type BatchPool struct {
	p sync.Pool
}

// Get returns a Batch with one reference and zero-length Events (capacity is
// retained across recycles, so steady-state producers never reallocate).
func (bp *BatchPool) Get() *Batch {
	b, ok := bp.p.Get().(*Batch)
	if !ok {
		b = &Batch{pool: bp}
	}
	b.Events = b.Events[:0]
	b.refs.Store(1)
	return b
}

func (bp *BatchPool) put(b *Batch) {
	bp.p.Put(b)
}
