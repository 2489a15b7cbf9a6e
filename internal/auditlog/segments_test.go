package auditlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestTailBeforeStartIsUnavailable is the regression test for a promoted
// journal answering for entries it never held: NewJournalAt(100).Tail(50)
// used to return an empty valid tail (start stayed 0 until the first
// Append), so a failover from a base older than the promotion would replay
// nothing and silently drop entries 50-99. The window's start is the first
// retained Seq, or the next one to be assigned when nothing is retained.
func TestTailBeforeStartIsUnavailable(t *testing.T) {
	valid := func(j *Journal, from uint64, want int) {
		t.Helper()
		if got := j.Tail(from); got == nil || len(got) != want {
			t.Fatalf("Tail(%d) = %v, want a valid tail of %d", from, got, want)
		}
	}
	unavailable := func(j *Journal, from uint64) {
		t.Helper()
		if got := j.Tail(from); got != nil {
			t.Fatalf("Tail(%d) = %d entries, want nil (unavailable)", from, len(got))
		}
	}
	j := NewJournalAt(100)
	unavailable(j, 50)
	unavailable(j, 99)
	valid(j, 100, 0)
	valid(NewJournal(), 1, 0)

	j.Append(Entry{Op: OpFileAdd, Path: "/a"})
	unavailable(j, 50)
	valid(j, 100, 1)
	valid(j, 101, 0)

	j.Append(Entry{Op: OpFileDrop, Path: "/a"})
	j.TruncateTo(j.NextSeq())
	if j.Len() != 0 {
		t.Fatalf("Len = %d after truncating everything", j.Len())
	}
	unavailable(j, 50)
	unavailable(j, 101)
	valid(j, 102, 0)
	if e := j.Append(Entry{Op: OpFileAdd, Path: "/b"}); e.Seq != 102 {
		t.Fatalf("Append after truncate-everything got Seq %d, want 102", e.Seq)
	}
	unavailable(j, 101)
	valid(j, 102, 1)
}

// flatModel is the journal as one slice — what Journal was before it held
// segments — with the window-start rule of TestTailBeforeStartIsUnavailable.
type flatModel struct {
	entries     []Entry
	start, next uint64
}

func (m *flatModel) append(e Entry) {
	e.Seq, e.Epoch = m.next, 1
	m.next++
	m.entries = append(m.entries, e)
}

func (m *flatModel) tail(from uint64) []Entry {
	if from < m.start {
		return nil
	}
	if from >= m.next {
		return []Entry{}
	}
	return m.entries[from-m.start:]
}

func (m *flatModel) truncateTo(upTo uint64) {
	if upTo <= m.start {
		return
	}
	upTo = min(upTo, m.next)
	m.entries = m.entries[upTo-m.start:]
	m.start = upTo
}

// TestJournalMatchesFlatModel drives the segmented journal and the flat
// model with the same seeded Append/TruncateTo mix and compares Tail,
// Entries, Each, Len and the wire encoding as it goes. Runs end one entry
// short of, exactly at and one past a segment boundary, from a first Seq of
// 1 and of a promoted journal's arbitrary position.
func TestJournalMatchesFlatModel(t *testing.T) {
	for _, first := range []uint64{1, 777} {
		for _, segs := range []int{1, 3} {
			for _, delta := range []int{-1, 0, 1} {
				total := segs*segmentCap + delta
				t.Run(fmt.Sprintf("first=%d/appends=%d", first, total), func(t *testing.T) {
					checkAgainstFlatModel(t, first, total, int64(total)+int64(first))
				})
			}
		}
	}
}

func checkAgainstFlatModel(t *testing.T, first uint64, total int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	j := NewJournalAt(first)
	m := &flatModel{start: first, next: first}
	// A position around the retained window, boundaries included.
	around := func() uint64 {
		lo := m.start - min(m.start, 2)
		return lo + uint64(rng.Int63n(int64(m.next-lo)+3))
	}
	compare := func(what string) {
		t.Helper()
		if j.Len() != len(m.entries) || j.NextSeq() != m.next {
			t.Fatalf("%s: Len=%d NextSeq=%d, model %d/%d", what, j.Len(), j.NextSeq(), len(m.entries), m.next)
		}
		from := around()
		got, want := j.Tail(from), m.tail(from)
		if (got == nil) != (want == nil) || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: Tail(%d) = %d entries (nil=%v), model %d (nil=%v)", what, from, len(got), got == nil, len(want), want == nil)
		}
		var each []Entry
		j.Each(from, func(e *Entry) bool {
			each = append(each, *e)
			return true
		})
		if want := m.tail(max(from, m.start)); len(each) != len(want) || (len(each) > 0 && !reflect.DeepEqual(each, want)) {
			t.Fatalf("%s: Each(%d) visited %d entries, model %d", what, from, len(each), len(want))
		}
	}
	compareAll := func(what string) {
		t.Helper()
		compare(what)
		all := j.Entries()
		if len(all) != len(m.entries) || (len(all) > 0 && !reflect.DeepEqual(all, m.entries)) {
			t.Fatalf("%s: Entries() differs from the model (%d vs %d)", what, len(all), len(m.entries))
		}
		var got, want bytes.Buffer
		if err := EncodeEntries(&got, all); err != nil {
			t.Fatal(err)
		}
		if err := EncodeEntries(&want, m.entries); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: wire encoding differs from the model's", what)
		}
	}
	for appended := 0; appended < total; {
		switch x := rng.Intn(100); {
		case x < 90:
			e := Entry{
				Op: Op(1 + rng.Intn(int(opSentinel)-1)), Time: time.Duration(appended) * time.Millisecond,
				Path: fmt.Sprintf("/f/%d", rng.Intn(1000)), File: rng.Intn(1000), Block: rng.Int63n(1 << 20),
				Node: rng.Intn(100), Size: float64(rng.Intn(1 << 30)), Flag: rng.Intn(2) == 0,
			}
			if got := j.Append(e); got.Seq != m.next || got.Epoch != 1 {
				t.Fatalf("Append stamped seq %d epoch %d, want %d/1", got.Seq, got.Epoch, m.next)
			}
			m.append(e)
			appended++
		case x < 93:
			upTo := around()
			j.TruncateTo(upTo)
			m.truncateTo(upTo)
			compare(fmt.Sprintf("after TruncateTo(%d)", upTo))
		default:
			compare("mid-run")
		}
		if appended%segmentCap == 0 || appended%segmentCap == 1 || appended%segmentCap == segmentCap-1 {
			compareAll(fmt.Sprintf("at %d appends", appended))
		}
	}
	compareAll("end of run")
	// Truncate to one short of, onto and one past each segment boundary
	// still retained, then to everything.
	for b := first + segmentCap; b < m.next+segmentCap; b += segmentCap {
		for _, upTo := range []uint64{b - 1, b, b + 1} {
			j.TruncateTo(upTo)
			m.truncateTo(upTo)
			compareAll(fmt.Sprintf("after boundary TruncateTo(%d)", upTo))
		}
	}
	if j.Len() != 0 || j.Tail(m.next) == nil || j.Tail(m.next-1) != nil {
		t.Fatalf("after truncating everything: Len=%d", j.Len())
	}
}

// TestAppendNeverCopies: an Append allocates only when it opens a segment,
// and never moves an entry already stored.
func TestAppendNeverCopies(t *testing.T) {
	const segs = 4
	allocs := testing.AllocsPerRun(5, func() {
		j := NewJournal()
		for i := 0; i < segs*segmentCap; i++ {
			j.Append(Entry{Op: OpReplicaAdd, Block: int64(i)})
		}
	})
	// The journal, its segments, and the segment table doubling 1, 2, 4.
	if limit := float64(1 + segs + 3); allocs > limit {
		t.Errorf("%d appends made %.0f allocations, want at most %.0f", segs*segmentCap, allocs, limit)
	}
	j := NewJournal()
	firstEntry := func() (p *Entry) {
		j.Each(1, func(e *Entry) bool {
			p = e
			return false
		})
		return p
	}
	j.Append(Entry{Op: OpFileAdd, Path: "/a"})
	before := firstEntry()
	for i := 0; i < segs*segmentCap; i++ {
		j.Append(Entry{Op: OpReplicaAdd, Block: int64(i)})
	}
	if after := firstEntry(); after != before || after.Path != "/a" {
		t.Errorf("entry 1 moved from %p to %p as the journal grew", before, after)
	}
}

// BenchmarkJournalAppend is the per-mutation cost of journaling: steady
// appends into a journal that is never truncated, as between two failovers.
func BenchmarkJournalAppend(b *testing.B) {
	b.ReportAllocs()
	j := NewJournal()
	e := Entry{Op: OpReplicaAdd, Time: time.Second, Block: 42, Node: 7}
	for i := 0; i < b.N; i++ {
		j.Append(e)
	}
}
