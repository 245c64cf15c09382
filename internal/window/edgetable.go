package window

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/graph"
)

// edgeTable is Ring's live-edge index: an open-addressing hash table from an
// edge to the absolute sequence number of its ring entry. Slots interleave
// key and value, so a probe that hits loads one 16-byte slot; collisions are
// resolved by linear probing, and deletion shifts the rest of the probe run
// back instead of leaving tombstones, so lookups never scan dead slots. The
// table doubles before its load factor passes 1/2.
//
// The hash is keyed with a random seed drawn per table, so a client cannot
// choose edges that collide (hash flooding would turn every probe into a
// scan of one long run). Slot order depends on the seed, so nothing may
// iterate the slots: the ring's entry order alone decides expiry order and
// snapshot contents.
//
// The zero edgeTable is empty; the first insert allocates it.
type edgeTable struct {
	slots []edgeSlot
	mask  uint64 // len(slots) - 1; len(slots) is a power of two
	n     int    // occupied slots
	seed  [2]uint64
}

// edgeSlot holds one edge key (U<<32 | V) and 1 + its ring sequence number;
// seq 0 marks an empty slot, so a zeroed slot array is an empty table.
type edgeSlot struct {
	key uint64
	seq uint64
}

// minTableSlots is the slot count of a table's first allocation.
const minTableSlots = 16

func edgeKey(e graph.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// home returns the slot a key's probe run starts at: a seeded 64x64->128-bit
// multiply folded to 64 bits (the mixing step of wyhash), masked to the table.
func (t *edgeTable) home(key uint64) uint64 {
	hi, lo := bits.Mul64(key^t.seed[0], t.seed[1])
	return (hi ^ lo) & t.mask
}

// Len returns the number of stored edges.
func (t *edgeTable) Len() int { return t.n }

// find returns the slot holding key, or -1 when the key is absent.
func (t *edgeTable) find(key uint64) int {
	if t.n == 0 {
		return -1
	}
	for i := t.home(key); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.seq == 0 {
			return -1
		}
		if s.key == key {
			return int(i)
		}
	}
}

// Get returns the sequence number stored for e.
func (t *edgeTable) Get(e graph.Edge) (int64, bool) {
	i := t.find(edgeKey(e))
	if i < 0 {
		return 0, false
	}
	return int64(t.slots[i].seq - 1), true
}

// Put stores seq for e in a single probe run, returning the sequence number
// it replaced, if e was already present.
func (t *edgeTable) Put(e graph.Edge, seq int64) (old int64, replaced bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	key := edgeKey(e)
	for i := t.home(key); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.seq == 0 {
			*s = edgeSlot{key: key, seq: uint64(seq) + 1}
			t.n++
			return 0, false
		}
		if s.key == key {
			old = int64(s.seq - 1)
			s.seq = uint64(seq) + 1
			return old, true
		}
	}
}

// Delete removes e, returning its sequence number. The slots after it in the
// same probe run shift back into the hole, each as far as its home allows,
// so every remaining key stays reachable from its home without a tombstone.
func (t *edgeTable) Delete(e graph.Edge) (int64, bool) {
	i := t.find(edgeKey(e))
	if i < 0 {
		return 0, false
	}
	seq := int64(t.slots[i].seq - 1)
	hole := uint64(i)
	for j := (hole + 1) & t.mask; ; j = (j + 1) & t.mask {
		s := t.slots[j]
		if s.seq == 0 {
			break
		}
		// s must stay put when its home lies cyclically in (hole, j]:
		// moving it to the hole would place it before its home.
		if (j-t.home(s.key))&t.mask < (j-hole)&t.mask {
			continue
		}
		t.slots[hole] = s
		hole = j
	}
	t.slots[hole] = edgeSlot{}
	t.n--
	return seq, true
}

// grow doubles the slot array (allocating the first one, and drawing the
// seed, on first use) and reinserts every key.
func (t *edgeTable) grow() {
	if t.slots == nil {
		t.seed = [2]uint64{rand.Uint64(), rand.Uint64() | 1}
	}
	old := t.slots
	n := 2 * len(old)
	if n < minTableSlots {
		n = minTableSlots
	}
	t.slots = make([]edgeSlot, n)
	t.mask = uint64(n - 1)
	for _, s := range old {
		if s.seq == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].seq != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}
