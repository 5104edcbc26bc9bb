package relation

import (
	"hash/maphash"
	"strings"
	"sync/atomic"
)

// dict is a catalog's string dictionary: every distinct string a TEXT
// cell of any of its tables ever held, numbered from 0 in the order it
// was first stored. A TEXT cell is its string's code, so a loaded row
// owns no string and equal cells share one copy, across tables too.
//
// The dictionary is append-only: a string keeps its code for the
// catalog's lifetime, also after every cell holding it is deleted,
// superseded or rolled back, so the dictionary is bounded by the
// distinct strings ever stored, not by the live ones (DESIGN.md §11).
//
// Publication rule, as varDir's: only writers, under the catalog's wmu,
// store into it, and a string is in its block before its code is
// published — in the probe table by an atomic store, in a cell by the
// record count that covers it — so readers take no lock. A reader
// holding a cell's code finds its string; a lookup finds every string a
// record visible at the reader's version holds.
type dict struct {
	seed maphash.Seed
	n    int32 // codes handed out (writers only)
	// blocks holds the strings by code; growth is copy-on-write, as the
	// variable directory's.
	blocks atomic.Pointer[[]*dictBlock]
	// slots is an open-addressed table, at most half full, of code+1 at
	// the string's hash (0: empty). Growth publishes a new table whole.
	slots atomic.Pointer[[]atomic.Int32]
	// slab is where the copies of short strings are packed (writers
	// only): a builder never rewrites a byte it returned, so each copy
	// is a substring of a slab that stays put, and strings cost no heap
	// object each.
	slab strings.Builder
}

// slabLen is the size of a string slab, an exact size class; a string
// longer than a slab's eighth gets its own copy.
const slabLen = 8 << 10

const dictBits = 10

// dictBlock holds the strings of 1<<dictBits consecutive codes: 16 KB,
// an exact size class.
type dictBlock [1 << dictBits]string

func newDict() *dict { return &dict{seed: maphash.MakeSeed()} }

// at returns the string of code c, which a published cell or probe
// slot holds.
func (d *dict) at(c int32) string {
	return (*d.blocks.Load())[c>>dictBits][c&(1<<dictBits-1)]
}

// lookup returns the code of s; false when no cell ever held s.
func (d *dict) lookup(s string) (int32, bool) {
	p := d.slots.Load()
	if p == nil {
		return 0, false
	}
	slots := *p
	mask := uint64(len(slots) - 1)
	for i := maphash.String(d.seed, s) & mask; ; i = (i + 1) & mask {
		c := slots[i].Load() - 1
		if c < 0 {
			return 0, false
		}
		if d.at(c) == s {
			return c, true
		}
	}
}

// intern returns the code of s, storing a copy of s under the next code
// if it has none (writers only, under wmu). The copy keeps a cell from
// pinning the buffer s was cut from, such as a CSV line.
func (d *dict) intern(s string) int32 {
	if c, ok := d.lookup(s); ok {
		return c
	}
	c := d.n
	var bs []*dictBlock
	if p := d.blocks.Load(); p != nil {
		bs = *p
	}
	if int(c>>dictBits) == len(bs) {
		grown := append(bs[:len(bs):len(bs)], new(dictBlock))
		d.blocks.Store(&grown)
		bs = grown
	}
	bs[c>>dictBits][c&(1<<dictBits-1)] = d.copyOf(s)
	d.n++
	if p := d.slots.Load(); p != nil && 2*int(d.n) <= len(*p) {
		d.place(*p, c)
		return c
	}
	// Grow: file every code in a table at least twice their number and
	// publish it.
	size := 64
	for size < 2*int(d.n) {
		size *= 2
	}
	slots := make([]atomic.Int32, size)
	for k := range d.n {
		d.place(slots, k)
	}
	d.slots.Store(&slots)
	return c
}

// copyOf returns a copy of s, packed into the current slab when short.
func (d *dict) copyOf(s string) string {
	if len(s) > slabLen/8 {
		return strings.Clone(s)
	}
	if d.slab.Cap()-d.slab.Len() < len(s) {
		d.slab = strings.Builder{}
		d.slab.Grow(slabLen)
	}
	from := d.slab.Len()
	d.slab.WriteString(s)
	return d.slab.String()[from:]
}

// place files code c in its first free slot of slots.
func (d *dict) place(slots []atomic.Int32, c int32) {
	mask := uint64(len(slots) - 1)
	i := maphash.String(d.seed, d.at(c)) & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].Store(c + 1)
}
