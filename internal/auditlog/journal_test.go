package auditlog

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"erms/internal/wire"
)

func sampleEntries() []Entry {
	return []Entry{
		{Op: OpFileAdd, Time: 5 * time.Second, Path: "/data/a", File: 0, Size: 256 << 20, Target: 3},
		{Op: OpBlockAdd, Time: 5 * time.Second, Block: 0, File: 0, Index: 0, Size: 64 << 20},
		{Op: OpReplicaAdd, Time: 6 * time.Second, Block: 0, Node: 4},
		{Op: OpBlockAdd, Time: 7 * time.Second, Block: 1, File: 0, Index: 4, Size: 64 << 20, Flag: true, Group: 1},
		{Op: OpRename, Time: 8 * time.Second, File: 0, Path: "/data/a", Dst: "/data/b"},
		{Op: OpSetTarget, Time: 9 * time.Second, File: 0, Target: 5},
		{Op: OpEncodeGeom, Time: 10 * time.Second, File: 0, K: 4, M: 2},
		{Op: OpNodeState, Time: 11 * time.Second, Node: 7, State: 3, Flag: true},
		{Op: OpNodeStale, Time: 12 * time.Second, Node: 7, Flag: true},
		{Op: OpReported, Time: 13 * time.Second, Block: 1, Node: 2},
		{Op: OpReplicaDrop, Time: 14 * time.Second, Block: 0, Node: 4},
		{Op: OpBlockDrop, Time: 15 * time.Second, Block: 1},
		{Op: OpFileDrop, Time: 16 * time.Second, File: 0, Path: "/data/b"},
	}
}

func TestJournalAppendSeqAndTail(t *testing.T) {
	j := NewJournal()
	if got := j.NextSeq(); got != 1 {
		t.Fatalf("fresh journal NextSeq = %d, want 1", got)
	}
	for _, e := range sampleEntries() {
		j.Append(e)
	}
	n := len(sampleEntries())
	if j.Len() != n {
		t.Fatalf("Len=%d, want %d", j.Len(), n)
	}
	for i, e := range j.Entries() {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has Seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if got := j.Tail(1); len(got) != n {
		t.Fatalf("Tail(1) returned %d entries, want %d", len(got), n)
	}
	mid := uint64(5)
	tail := j.Tail(mid)
	if len(tail) != n-4 || tail[0].Seq != mid {
		t.Fatalf("Tail(%d): got %d entries starting at %d", mid, len(tail), tail[0].Seq)
	}
	if got := j.Tail(j.NextSeq()); got == nil || len(got) != 0 {
		t.Fatalf("Tail(NextSeq) = %v, want empty non-nil", got)
	}
}

func TestJournalTruncate(t *testing.T) {
	j := NewJournal()
	for _, e := range sampleEntries() {
		j.Append(e)
	}
	j.TruncateTo(6)
	if j.Len() != len(sampleEntries())-5 {
		t.Fatalf("after TruncateTo(6): Len=%d", j.Len())
	}
	if j.Tail(5) != nil {
		t.Fatal("Tail before truncation point should be nil (unavailable)")
	}
	tail := j.Tail(6)
	if len(tail) == 0 || tail[0].Seq != 6 {
		t.Fatalf("Tail(6) starts at %d", tail[0].Seq)
	}
	// Sequence numbering survives truncation.
	next := j.NextSeq()
	e := j.Append(Entry{Op: OpFileDrop})
	if e.Seq != next {
		t.Fatalf("post-truncate Append assigned Seq %d, want %d", e.Seq, next)
	}
}

func TestJournalEncodeDecodeRoundTrip(t *testing.T) {
	j := NewJournal()
	for _, e := range sampleEntries() {
		j.Append(e)
	}
	var buf bytes.Buffer
	if err := EncodeEntries(&buf, j.Entries()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeEntries(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != j.Len() {
		t.Fatalf("decoded %d entries, want %d", len(got), j.Len())
	}
	for i := range got {
		if got[i] != j.Entries()[i] {
			t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, got[i], j.Entries()[i])
		}
	}
	// Empty journal round-trips too.
	buf.Reset()
	if err := EncodeEntries(&buf, nil); err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	if got, err := DecodeEntries(bytes.NewReader(buf.Bytes())); err != nil || len(got) != 0 {
		t.Fatalf("decode empty: %v (%d entries)", err, len(got))
	}
}

func TestJournalDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal()
	for _, e := range sampleEntries() {
		j.Append(e)
	}
	if err := EncodeEntries(&buf, j.Entries()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	good := buf.Bytes()

	for cut := 0; cut < len(good); cut += 7 {
		if _, err := DecodeEntries(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(good))
		}
	}
	for i := 0; i < len(good); i += 11 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xff
		if _, err := DecodeEntries(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at %d decoded without error", i)
		}
	}
	if _, err := DecodeEntries(strings.NewReader("not a journal at all")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestJournalEntryString(t *testing.T) {
	for _, e := range sampleEntries() {
		if s := e.String(); s == "" || !strings.Contains(s, e.Op.String()) {
			t.Fatalf("String() for %v = %q", e.Op, s)
		}
	}
	if got := Op(0).String(); got != "op(0)" {
		t.Fatalf("invalid op String = %q", got)
	}
	if Op(0).Valid() || !OpFileAdd.Valid() || Op(200).Valid() {
		t.Fatal("Op.Valid misclassifies")
	}
}

// TestJournalDecodeRejectsOverlongVarint re-seals a stream whose entry
// count is spelled with a redundant continuation byte (0x82 0x00 for 2):
// it decodes to the same count, but it is not the stream EncodeEntries
// writes, so it must be refused rather than accepted and re-encoded
// shorter.
func TestJournalDecodeRejectsOverlongVarint(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeEntries(&buf, sampleEntries()[:2]); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	at := len(journalMagic) + 1 // one-byte version, then the count
	if good[at] != 2 {
		t.Fatalf("entry count byte is %#x, want 0x02", good[at])
	}
	body := append(append(append([]byte(nil), good[:at]...), 0x82, 0x00), good[at+1:len(good)-8]...)
	bad := wire.Writer(body).Seal(0)
	if _, err := DecodeEntries(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "entry count") {
		t.Fatalf("overlong entry count: err = %v, want a refusal naming the entry count", err)
	}
}

// TestJournalDecodeRejectsWideOp: an op code of 257 is not OpFileAdd (1)
// spelled wide. Truncating it to the uint8 Op accepted the entry and
// re-encoded it differently.
func TestJournalDecodeRejectsWideOp(t *testing.T) {
	w := wire.Begin(nil, journalMagic, JournalVersion)
	for _, v := range []uint64{1, 1, 1, 0, 257} { // count, seq, epoch, time, op
		w.Uvarint(v)
	}
	w.Str("/a")
	w.Str("")
	w = append(w, make([]byte, 11)...) // nine varints, size, flag: all zero
	if _, err := DecodeEntries(bytes.NewReader(w.Seal(0))); err == nil || !strings.Contains(err.Error(), "unknown op 257") {
		t.Fatalf("op 257: err = %v, want unknown op 257", err)
	}
}
