package auditlog

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
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

// flatModel is the journal as a slice of structs — what Journal was before
// it held records — with the window-start rule of
// TestTailBeforeStartIsUnavailable.
type flatModel struct {
	entries     []Entry
	start, next uint64
	epoch       uint64
}

func (m *flatModel) append(e Entry) {
	e.Seq, e.Epoch = m.next, m.epoch
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

// sameEntries compares entries bit for bit: Size by its IEEE bits, so a
// NaN payload must survive and -0 is not 0.
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		xs, ys := math.Float64bits(x.Size), math.Float64bits(y.Size)
		x.Size, y.Size = 0, 0
		if x != y || xs != ys {
			return false
		}
	}
	return true
}

// plainEntry is the kind of entry the namenode journals: a valid op and
// small non-negative fields.
func plainEntry(rng *rand.Rand, appended int) Entry {
	return Entry{
		Op: Op(1 + rng.Intn(int(opSentinel)-1)), Time: time.Duration(appended) * time.Millisecond,
		Path: fmt.Sprintf("/f/%d", rng.Intn(1000)), File: rng.Intn(1000), Block: rng.Int63n(1 << 20),
		Node: rng.Intn(100), Size: float64(rng.Intn(1 << 30)), Flag: rng.Intn(2) == 0,
	}
}

// TestJournalMatchesFlatModel drives the segmented journal and the flat
// model with the same seeded Append/TruncateTo/epoch mix and compares Tail,
// Entries, Each, Len and the wire encoding as it goes. Runs end one entry
// short of, exactly at and one past a segment boundary, from a first Seq of
// 1 and of a promoted journal's arbitrary position.
func TestJournalMatchesFlatModel(t *testing.T) {
	for _, first := range []uint64{1, 777} {
		for _, segs := range []int{1, 3} {
			for _, delta := range []int{-1, 0, 1} {
				total := segs*segmentCap + delta
				t.Run(fmt.Sprintf("first=%d/appends=%d", first, total), func(t *testing.T) {
					checkAgainstFlatModel(t, first, total, int64(total)+int64(first), plainEntry)
				})
			}
		}
	}
}

// extremeEntry sets every field from the values a compact encoding is
// likeliest to get wrong: int extremes and negatives, Size as -0, NaNs
// with payloads, infinities and random bits, and empty, long and shared
// strings. Op is any byte, valid or not, and Time jumps either way.
func extremeEntry(rng *rand.Rand, _ int) Entry {
	ints := [...]int64{0, 1, -1, 63, -64, 64, -65, 127, 128, math.MaxInt32, math.MinInt32,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	i64 := func() int64 {
		if rng.Intn(2) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Int63() - rng.Int63()
	}
	sizes := [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001),
		math.Float64frombits(0xfff8_dead_beef_0001), math.Inf(1), math.Inf(-1), 64 << 20, -1.5,
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	size := math.Float64frombits(rng.Uint64())
	if rng.Intn(2) == 0 {
		size = sizes[rng.Intn(len(sizes))]
	}
	str := func() string {
		return [...]string{"", "/a", sharedPath, sharedPath[:7], longPath, "/ünï/\x00/" + fmt.Sprint(rng.Intn(9))}[rng.Intn(6)]
	}
	return Entry{
		Seq: rng.Uint64(), Epoch: rng.Uint64(), // Append overwrites both
		Op: Op(rng.Intn(256)), Time: time.Duration(i64()), Path: str(), Dst: str(),
		File: int(i64()), Block: i64(), Node: int(i64()), State: int(i64()), Target: int(i64()),
		K: int(i64()), M: int(i64()), Index: int(i64()), Group: int(i64()), Size: size, Flag: rng.Intn(2) == 0,
	}
}

var (
	sharedPath = "/shared/path/of/a/file"
	longPath   = strings.Repeat("/a-long-directory-name", 200)
)

// TestJournalRoundTripsEveryField: whatever an Entry holds comes back bit
// for bit through Append and Entries, Tail, Each and TruncateTo across
// segment edges, including fields its Op does not use.
func TestJournalRoundTripsEveryField(t *testing.T) {
	for _, first := range []uint64{1, 777} {
		t.Run(fmt.Sprintf("first=%d", first), func(t *testing.T) {
			checkAgainstFlatModel(t, first, 3*segmentCap+1, int64(first)*31, extremeEntry)
		})
	}
}

func checkAgainstFlatModel(t *testing.T, first uint64, total int, seed int64, gen func(*rand.Rand, int) Entry) {
	rng := rand.New(rand.NewSource(seed))
	j := NewJournalAt(first)
	m := &flatModel{start: first, next: first, epoch: 1}
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
		if (got == nil) != (want == nil) || !sameEntries(got, want) {
			t.Fatalf("%s: Tail(%d) = %d entries (nil=%v), model %d (nil=%v)", what, from, len(got), got == nil, len(want), want == nil)
		}
		var each []Entry
		j.Each(from, func(e *Entry) bool {
			each = append(each, *e)
			return true
		})
		if want := m.tail(max(from, m.start)); !sameEntries(each, want) {
			t.Fatalf("%s: Each(%d) visited %d entries, model %d", what, from, len(each), len(want))
		}
	}
	compareAll := func(what string) {
		t.Helper()
		compare(what)
		all := j.Entries()
		if !sameEntries(all, m.entries) {
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
		case x < 89:
			e := gen(rng, appended)
			if got := j.Append(e); got.Seq != m.next || got.Epoch != m.epoch {
				t.Fatalf("Append stamped seq %d epoch %d, want %d/%d", got.Seq, got.Epoch, m.next, m.epoch)
			}
			m.append(e)
			appended++
		case x < 90:
			if rng.Intn(2) == 0 {
				m.epoch = j.BumpEpoch()
			} else {
				j.SetEpoch(m.epoch + uint64(rng.Int63()))
				m.epoch = j.Epoch()
			}
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

// TestAppendNeverCopies: an Append's cost does not depend on how long the
// journal has grown. It allocates only when it opens or fills a segment,
// at most 32 bytes an entry all told, and leaves stored entries as they
// were: entry 1 reads back equal after four more segments.
func TestAppendNeverCopies(t *testing.T) {
	const segs = 4
	fill := func() {
		j := NewJournal()
		for i := 0; i < segs*segmentCap; i++ {
			j.Append(Entry{Op: OpReplicaAdd, Time: time.Duration(i) * time.Millisecond, Block: int64(i), Node: i % 100})
		}
	}
	allocs := testing.AllocsPerRun(5, fill)
	// The journal and its two build buffers; per segment at most two more
	// (the trimmed copies it keeps once full, or a build buffer growing);
	// the segment table doubling 1, 2, 4.
	if limit := float64(3 + 2*segs + 3); allocs > limit {
		t.Errorf("%d appends made %.0f allocations, want at most %.0f", segs*segmentCap, allocs, limit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / (segs * segmentCap); per > 32 {
		t.Errorf("appends allocated %.1f bytes an entry, want at most 32", per)
	}

	j := NewJournal()
	want := j.Append(Entry{Op: OpFileAdd, Time: time.Second, Path: "/a", File: 3, Size: 1 << 20, Target: 3})
	for i := 0; i < segs*segmentCap; i++ {
		j.Append(Entry{Op: OpReplicaAdd, Block: int64(i)})
	}
	var got Entry
	j.Each(1, func(e *Entry) bool {
		got = *e
		return false
	})
	if got != want {
		t.Errorf("entry 1 reads back as %v after %d segments, want %v", got, segs, want)
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

// BenchmarkJournalTail is the other side of holding records: decoding a
// 10,000-entry tail, one failover's replay input, from a journal of the
// churn mix (a file added or dropped, its block, three replicas each).
func BenchmarkJournalTail(b *testing.B) {
	const n = 10000
	j := NewJournal()
	paths := make([]string, n/5)
	for i := range paths {
		paths[i] = fmt.Sprintf("/churn/f%07d", i)
	}
	for i := 0; j.Len() < n; i++ {
		at, blk := time.Duration(i)*10*time.Millisecond, int64(i)
		op, rop := OpFileAdd, OpReplicaAdd
		if i%2 == 1 {
			op, rop = OpFileDrop, OpReplicaDrop
		}
		j.Append(Entry{Op: op, Time: at, Path: paths[i%len(paths)], File: i, Size: 8 << 20, Target: 3})
		j.Append(Entry{Op: OpBlockAdd, Time: at, Block: blk, File: i, Size: 8 << 20})
		for r := 0; r < 3; r++ {
			j.Append(Entry{Op: rop, Time: at, Block: blk, Node: (i + r) % 102})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tail := j.Tail(1); len(tail) != n {
			b.Fatalf("tail of %d entries, want %d", len(tail), n)
		}
	}
}
