package window

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/graph"
)

// edgeTable is Ring's live-edge index: an open-addressing hash table from an
// edge to the sequence number of its ring entry. A slot holds the edge's tag
// (an occupied bit over 31 bits of its hash) above the low 32 bits of the
// number, which locate the entry in the ring's buffer; the edge itself lives
// only in the ring, where a tag match is confirmed. A slot's home is its tag
// masked to the table, so nothing is rehashed. Collisions are resolved by
// linear probing, and deletion shifts the rest of the probe run back instead
// of leaving tombstones, so lookups never scan dead slots. The table doubles
// before its load factor passes 1/2.
//
// The hash is keyed with a random seed drawn per table, so a client cannot
// choose edges that collide (hash flooding would turn every probe into a
// scan of one long run). Slot order depends on the seed, so nothing may
// iterate the slots: the ring's entry order alone decides expiry order and
// snapshot contents.
//
// The zero edgeTable is empty; the first insert allocates it.
type edgeTable struct {
	slots []uint64 // tag<<32 | low 32 bits of seq; 0 marks an empty slot
	mask  uint64   // len(slots) - 1; len(slots) is a power of two
	n     int      // occupied slots
	seed  [2]uint64
}

const (
	occupied = 1 << 31 // the tag bit that makes every stored slot non-zero
	minSlots = 16      // the first length of a ring's buffer and of its index
)

// tag returns the occupied bit over the top 31 bits of e's seeded hash: a
// 64x64->128-bit multiply folded to 64 bits (the mixing step of wyhash).
func (t *edgeTable) tag(e graph.Edge) uint32 {
	hi, lo := bits.Mul64((uint64(e.U)<<32|uint64(e.V))^t.seed[0], t.seed[1])
	return uint32((hi^lo)>>33) | occupied
}

// home returns the slot a tag's probe run starts at.
func (t *edgeTable) home(tag uint32) uint64 { return uint64(tag&^occupied) & t.mask }

// deleteAt empties slot i. The slots after it in the same probe run shift
// back into the hole, each as far as its home allows, so every remaining
// edge stays reachable from its home without a tombstone.
func (t *edgeTable) deleteAt(i uint64) {
	hole := i
	for j := (hole + 1) & t.mask; t.slots[j] != 0; j = (j + 1) & t.mask {
		// Slot j stays put when its home lies cyclically in (hole, j]:
		// moving it to the hole would place it before its home.
		if (j-t.home(uint32(t.slots[j]>>32)))&t.mask >= (j-hole)&t.mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
	t.n--
}

// grow doubles the slot array (allocating the first one, and drawing the
// seed, on first use) and reinserts every slot at its tag's home.
func (t *edgeTable) grow() {
	if t.slots == nil {
		t.seed = [2]uint64{rand.Uint64(), rand.Uint64() | 1}
	}
	old := t.slots
	t.slots = make([]uint64, max(2*len(old), minSlots))
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s != 0 {
			i := t.home(uint32(s >> 32))
			for t.slots[i] != 0 {
				i = (i + 1) & t.mask
			}
			t.slots[i] = s
		}
	}
}
