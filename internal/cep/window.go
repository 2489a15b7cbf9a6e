package cep

import (
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
// its oldest live record without a list of its own.

// maxGroupKeyFields caps the typed composite group key.
const maxGroupKeyFields = 3

// groupKey is a comparable composite key over at most maxGroupKeyFields
// typed values — no fmt round-trip, no per-insert allocation. Keys are
// typed: the string '1' and the number 1 are different groups.
type groupKey struct {
	n uint8
	v [maxGroupKeyFields]Val
}

var groupHashSeed = maphash.MakeSeed()

// hash is a 64-bit hash of the key's live fields only: each field's kind,
// then its payload — a string through maphash, a number as its float bits
// with −0 folded into 0 — so keys equal under == hash alike.
// Statement.groups chains keys whose hashes collide; == stays the equality,
// so a NaN still matches nothing and forms a group of its own.
func (k *groupKey) hash() uint64 {
	var h uint64
	for i := range k.n {
		v := &k.v[i]
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
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)%len(r.buf)] }

// expEntry is one retained record in the statement-level expiry FIFO: its
// event time, the group it belongs to, and the sequence number of that
// group's next record (meaningless until one arrives).
type expEntry struct {
	t    time.Duration
	g    *group
	next uint64
}

// group is the running state of one surviving group, or, emptied, a spare
// on its statement's free list.
type group struct {
	key  groupKey
	hash uint64 // the key's Statement.groups bucket
	// next is the bucket's next group, whose key hashes alike; on the free
	// list, the next spare.
	next   *group
	count  int    // live records: the group's count(*)
	oldest uint64 // sequence numbers of the oldest and newest live records
	newest uint64
}

// insert applies the where clause to one event and counts it in its group.
func (s *Statement) insert(ev *Event) {
	if ev.schema != s.schema {
		s.resolve(ev.schema)
	}
	if s.q.where != "" && ev.field(s.whereSlot) != s.q.whereVal {
		return
	}
	s.pruneTime()
	var key groupKey
	key.n = uint8(len(s.keySlots))
	for i, slot := range s.keySlots {
		key.v[i] = ev.field(slot)
	}
	h := key.hash() &^ s.hashClear
	head := s.groups[h]
	g := head
	for g != nil && g.key != key {
		g = g.next
	}
	if g == nil {
		if g = s.free; g != nil {
			s.free = g.next
		} else {
			g = new(group)
		}
		g.hash, g.next, g.oldest = h, head, s.seq
		s.groups[h] = g
	} else {
		s.record(g.newest).next = s.seq
	}
	g.key = key // ==-equal to the stored key, but a −0/+0 group shows its latest
	g.count++
	g.newest = s.seq
	s.seq++
	s.expiry.push(expEntry{t: ev.Time, g: g})
}

// record returns the expiry entry of the live record with sequence number
// seq: the FIFO holds the last expiry.len() sequence numbers in order.
func (s *Statement) record(seq uint64) *expEntry {
	return s.expiry.at(int(seq - (s.seq - uint64(s.expiry.len()))))
}

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
	for _, k := range s.q.keys {
		s.keySlots = append(s.keySlots, slot(k))
	}
	s.whereSlot = slot(s.q.where)
}

// pruneTime expires records older than the time window. The window is
// inclusive at its trailing edge: an event aged exactly the window is still
// visible, so a periodic evaluator with period == window never loses the
// events of the instant it last ran.
func (s *Statement) pruneTime() {
	cutoff := s.engine.clock() - s.q.window
	for s.expiry.len() > 0 && s.expiry.at(0).t < cutoff {
		rec := s.expiry.pop()
		g := rec.g
		if g.count--; g.count > 0 {
			g.oldest = rec.next
			continue
		}
		s.unlink(g)
		*g = group{next: s.free} // drop the key's strings
		s.free = g
	}
}

// unlink removes an emptied group from its bucket's chain.
func (s *Statement) unlink(g *group) {
	p := s.groups[g.hash]
	switch {
	case p != g:
		for p.next != g {
			p = p.next
		}
		p.next = g.next
	case g.next != nil:
		s.groups[g.hash] = g.next
	default:
		delete(s.groups, g.hash)
	}
}

// seqGroup is a live group keyed by the sequence of its oldest surviving
// record; no two groups share one.
type seqGroup struct {
	seq uint64
	g   *group
}

// surviving collects live groups ordered by the sequence of their oldest
// surviving record: the order groups first appear in the current window.
// Sequences are unique, so a radix sort on them, least significant byte
// first and over the bytes that differ within the window, orders the groups
// totally in a few linear passes.
func (s *Statement) surviving() []seqGroup {
	a := s.grpScratch[:0]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, g := range s.groups {
		for ; g != nil; g = g.next {
			seq := g.oldest
			lo, hi = min(lo, seq), max(hi, seq)
			a = append(a, seqGroup{seq, g})
		}
	}
	b := slices.Grow(s.grpSpare[:0], len(a))[:len(a)]
	for shift := uint(0); len(a) > 1 && (hi-lo)>>shift != 0; shift += 8 {
		var at [256]int
		for _, x := range a {
			at[(x.seq-lo)>>shift&0xff]++
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, x := range a {
			d := (x.seq - lo) >> shift & 0xff
			b[at[d]] = x
			at[d]++
		}
		a, b = b, a
	}
	s.grpScratch, s.grpSpare = a, b
	return a
}

// each prunes the window and streams one row of typed columns per surviving
// group, returning the number of rows. cols is reused between rows.
func (s *Statement) each(fn func(cols []Val)) int {
	s.pruneTime()
	groups := s.surviving()
	for _, sg := range groups {
		for i, k := range s.q.sel {
			if k < 0 {
				s.cols[i] = NumVal(float64(sg.g.count))
			} else {
				s.cols[i] = sg.g.key.v[k]
			}
		}
		fn(s.cols)
	}
	return len(groups)
}
