package causality

import (
	"encoding/binary"
	"math/bits"
)

// Bitset is a fixed-capacity bit vector used to represent op sets (crash
// states, cuts, closures) compactly. The capacity is fixed at creation; all
// operations assume operands of equal capacity.
//
// A Bitset is safe for concurrent readers as long as no goroutine mutates
// it.
//
// The crash emulator runs its per-candidate loop on scratch bitsets and
// relies on Get, Equal, Union, Subtract, Intersect and Hash (and the
// built-in copy) not allocating; Clone, Key and Members allocate and are
// kept out of that loop. AppendKey allocates only when dst must grow.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits, all clear.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (b Bitset) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Get reports whether bit i is set.
func (b Bitset) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Clone returns a copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// Equal reports whether b and o hold the same bits.
func (b Bitset) Equal(o Bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union sets b to b ∪ o.
func (b Bitset) Union(o Bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Subtract sets b to b \ o.
func (b Bitset) Subtract(o Bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// Intersect sets b to b ∩ o.
func (b Bitset) Intersect(o Bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

// Intersects reports whether b ∩ o is non-empty.
func (b Bitset) Intersects(o Bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether o ⊆ b.
func (b Bitset) ContainsAll(o Bitset) bool {
	for i := range o {
		if o[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Key returns a compact string form usable as a map key.
func (b Bitset) Key() string {
	return string(b.AppendKey(make([]byte, 0, 8*len(b))))
}

// AppendKey appends Key's bytes to dst and returns the extended slice. With
// a reused dst it does not allocate, so a map keyed by Key can be read as
// m[string(b.AppendKey(buf[:0]))] without building a string.
func (b Bitset) AppendKey(dst []byte) []byte {
	for _, w := range b {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Hash returns a 64-bit hash of the words (FNV-1a over words, not bytes).
// Equal hashes do not imply equal sets: confirm a hit with Equal.
func (b Bitset) Hash() uint64 {
	h := uint64(14695981039346656037)
	for _, w := range b {
		h = (h ^ w) * 1099511628211
	}
	return h
}

// Members returns the indices of set bits in ascending order.
func (b Bitset) Members() []int {
	var out []int
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			out = append(out, wi*64+i)
			w &^= 1 << uint(i)
		}
	}
	return out
}
