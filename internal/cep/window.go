package cep

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"time"
)

// This file is a statement's retained state: a running count per group,
// raised on insert and unwound on window expiry, so evaluation costs
// O(groups) instead of rescanning the retained events. Records expire
// front-first in insertion order through a statement-level FIFO, whose
// entries also link each record to its group's next one, so a group knows
// its oldest live record without a list of its own. Groups live in one
// slab addressed by index and their keys in a second one, arity values a
// group, so neither the FIFO nor the slab holds a pointer the collector
// must follow.

// maxGroupKeyFields caps a statement's group by keys.
const maxGroupKeyFields = 3

// maxRecords caps the records one statement's window retains: a FIFO
// entry reaches its group's next record by a uint32 distance in sequence
// numbers, and a group's slab index is a uint32 below none. A variable so
// a test can lower it.
var maxRecords uint64 = math.MaxUint32

// none ends a bucket chain or the free list.
const none = math.MaxUint32

var groupHashSeed = maphash.MakeSeed()

// hashKey is a 64-bit hash of a group key: each field's kind, then its
// payload — a string through maphash, a number as its float bits with −0
// folded into 0 — so keys equal under == hash alike. Statement.groups
// chains keys whose hashes collide; == on each Val stays the equality, so
// a NaN still matches nothing and forms a group of its own. Keys are
// typed: the string '1' and the number 1 are different groups.
func hashKey(key []Val) uint64 {
	var h uint64
	for i := range key {
		v := &key[i]
		var x uint64
		switch v.k {
		case kindStr:
			x = maphash.String(groupHashSeed, v.str)
		case kindNum:
			f := v.num
			if f == 0 {
				f = 0 // −0 == 0
			}
			x = math.Float64bits(f)
		}
		h = mix(mix(h, uint64(v.k)), x)
	}
	return h
}

// mix folds x into h: one 64×64→128-bit multiply, halves xored.
func mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^x, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// ring is a growable circular buffer (FIFO).
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)%len(r.buf)] }

// expEntry is one retained record in the statement-level expiry FIFO, 16
// bytes with no pointer: its event time, its group's slab index, and the
// distance in sequence numbers to that group's next record (meaningless
// until one arrives).
type expEntry struct {
	t    time.Duration
	g    uint32
	next uint32
}

// group is the running state of one surviving group, or, emptied, a spare
// on its statement's free list. Group i's key is the statement's
// keys[i·arity:(i+1)·arity].
type group struct {
	hash   uint64 // the key's Statement.groups bucket
	oldest uint64 // sequence numbers of the oldest and newest live records
	newest uint64
	count  uint32 // live records: the group's count(*); 0 on the free list
	// next is the slab index of the bucket's next group, whose key hashes
	// alike; on the free list, of the next spare; none ends either chain.
	next uint32
}

// key returns group gi's key fields in the key slab.
func (s *Statement) key(gi uint32) []Val {
	n := len(s.q.GroupBy)
	return s.keys[int(gi)*n : int(gi+1)*n]
}

// insert applies the where clause to one event and counts it in its group.
// It refuses the event once the window retains maxRecords records.
func (s *Statement) insert(ev *Event) error {
	if ev.schema != s.schema {
		s.resolve(ev.schema)
	}
	if s.q.Where != "" && ev.field(s.whereSlot) != s.q.Equals {
		return nil
	}
	s.pruneTime()
	if uint64(s.expiry.len()) >= maxRecords {
		return fmt.Errorf("cep: statement %q retains %d records, the most a window holds", s.label, s.expiry.len())
	}
	var buf [maxGroupKeyFields]Val
	key := buf[:len(s.keySlots)]
	for i, slot := range s.keySlots {
		key[i] = ev.field(slot)
	}
	h := hashKey(key) &^ s.hashClear
	head, ok := s.groups[h]
	if !ok {
		head = none
	}
	gi := head
	for gi != none && !slices.Equal(s.key(gi), key) {
		gi = s.grp[gi].next
	}
	if gi == none {
		if gi = s.free; gi != none {
			s.free = s.grp[gi].next
		} else {
			gi = uint32(len(s.grp))
			s.grp = append(s.grp, group{})
			s.keys = append(s.keys, key...)
		}
		s.grp[gi] = group{hash: h, next: head, oldest: s.seq}
		s.groups[h] = gi
	} else {
		s.record(s.grp[gi].newest).next = uint32(s.seq - s.grp[gi].newest)
	}
	copy(s.key(gi), key) // ==-equal to the stored key, but a −0/+0 group shows its latest
	g := &s.grp[gi]
	g.count++
	g.newest = s.seq
	s.seq++
	s.expiry.push(expEntry{t: ev.Time, g: gi})
	return nil
}

// record returns the expiry entry of the live record with sequence number
// seq: the FIFO holds the last expiry.len() sequence numbers in order.
func (s *Statement) record(seq uint64) *expEntry {
	return s.expiry.at(int(seq - s.first()))
}

// first is the sequence number of the oldest record the window retains.
func (s *Statement) first() uint64 { return s.seq - uint64(s.expiry.len()) }

// resolve maps the statement's fields onto a schema's slots; a field the
// schema lacks is -1 and reads as null.
func (s *Statement) resolve(sc *Schema) {
	slot := func(field string) int {
		if i, ok := sc.idx[field]; ok {
			return i
		}
		return -1
	}
	s.schema, s.keySlots = sc, s.keySlots[:0]
	for _, k := range s.q.GroupBy {
		s.keySlots = append(s.keySlots, slot(k))
	}
	s.whereSlot = slot(s.q.Where)
}

// pruneTime expires records older than the time window. The window is
// inclusive at its trailing edge: an event aged exactly the window is still
// visible, so a periodic evaluator with period == window never loses the
// events of the instant it last ran.
func (s *Statement) pruneTime() {
	cutoff := s.engine.clock() - s.q.Window
	for s.expiry.len() > 0 && s.expiry.at(0).t < cutoff {
		rec := s.expiry.pop()
		g := &s.grp[rec.g]
		if g.count--; g.count > 0 {
			g.oldest += uint64(rec.next)
			continue
		}
		s.unlink(rec.g)
		clear(s.key(rec.g)) // drop the key's strings
		*g = group{next: s.free}
		s.free = rec.g
	}
}

// unlink removes emptied group gi from its bucket's chain.
func (s *Statement) unlink(gi uint32) {
	g := &s.grp[gi]
	p := s.groups[g.hash]
	switch {
	case p != gi:
		for s.grp[p].next != gi {
			p = s.grp[p].next
		}
		s.grp[p].next = g.next
	case g.next != none:
		s.groups[g.hash] = g.next
	default:
		delete(s.groups, g.hash)
	}
}

// surviving collects live groups ordered by the sequence of their oldest
// surviving record: the order groups first appear in the current window.
// Each comes as one word, that sequence less the window's first in the
// high half and the group's slab index in the low half. Sequences are
// unique, so a radix sort on the high half, least significant byte first
// and over the bytes that differ within the window, orders the groups
// totally in a few linear passes.
func (s *Statement) surviving() []uint64 {
	a := s.sorted[:0]
	first, span := s.first(), uint64(0)
	for gi := range s.grp {
		if g := &s.grp[gi]; g.count > 0 {
			rel := g.oldest - first
			span = max(span, rel)
			a = append(a, rel<<32|uint64(gi))
		}
	}
	b := slices.Grow(s.spare[:0], len(a))[:len(a)]
	for shift := uint(32); len(a) > 1 && span>>(shift-32) != 0; shift += 8 {
		var at [256]int
		for _, x := range a {
			at[x>>shift&0xff]++
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, x := range a {
			d := x >> shift & 0xff
			b[at[d]] = x
			at[d]++
		}
		a, b = b, a
	}
	s.sorted, s.spare = a, b
	return a
}

// each prunes the window and streams one row of typed columns per surviving
// group, its keys then its count, returning the number of rows. cols is
// reused between rows.
func (s *Statement) each(fn func(cols []Val)) int {
	s.pruneTime()
	groups := s.surviving()
	for _, x := range groups {
		gi := uint32(x)
		n := copy(s.cols, s.key(gi))
		s.cols[n] = NumVal(float64(s.grp[gi].count))
		fn(s.cols)
	}
	return len(groups)
}
