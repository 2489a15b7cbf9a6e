package core

import (
	"slices"
	"time"
)

// idleList orders the judge's files by last touch — the last open or pread
// the audit log showed, else the file's creation — oldest first, so the
// files idle past formula (6)'s t are a prefix of it. It is a circular
// doubly linked list threaded through one 16-byte node per intern slot:
// node 0 is the sentinel and slot s lives at node s+1. A slot is off the
// list until the judge adopts it, once its file is deleted, and while its
// file is encoded and idle.
type idleList struct {
	n []idleNode
}

type idleNode struct {
	prev, next int32 // -1 while off the list
	last       time.Duration
}

// grow gives every slot below slots a node, off the list, growing the
// slice at most once (a judge adopting a restored namespace takes in
// every slot in one call).
func (l *idleList) grow(slots int) {
	if len(l.n) <= slots {
		l.n = slices.Grow(l.n, slots+1-len(l.n))
	}
	if len(l.n) == 0 {
		l.n = append(l.n, idleNode{}) // the sentinel, linked to itself
	}
	for len(l.n) <= slots {
		l.n = append(l.n, idleNode{prev: -1, next: -1})
	}
}

// place puts slot s on the list with last touch t, after every node touched
// at or before t. Touches arrive in time order, so the walk back from the
// tail is almost always empty.
func (l *idleList) place(s int, t time.Duration) {
	i := int32(s + 1)
	l.unlink(i)
	at := l.n[0].prev
	for at != 0 && l.n[at].last > t {
		at = l.n[at].prev
	}
	next := l.n[at].next
	l.n[i] = idleNode{prev: at, next: next, last: t}
	l.n[at].next = i
	l.n[next].prev = i
}

// relink puts slot s back on the list at its last touch if it is off it.
func (l *idleList) relink(s int) {
	if l.n[s+1].prev < 0 {
		l.place(s, l.n[s+1].last)
	}
}

// unlink takes node i off the list; it keeps its last touch.
func (l *idleList) unlink(i int32) {
	nd := &l.n[i]
	if nd.prev < 0 {
		return
	}
	l.n[nd.prev].next = nd.next
	l.n[nd.next].prev = nd.prev
	nd.prev, nd.next = -1, -1
}
