package auditlog

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"erms/internal/wire"
)

// FuzzParse: the parser must never panic, and anything it accepts must
// re-format into a line it accepts again with identical content.
func FuzzParse(f *testing.F) {
	f.Add(sample().Format())
	f.Add("2012-07-05 10:00:00,000 INFO FSNamesystem.audit: allowed=true ugi=u ip=/1.2.3.4 cmd=open src=/x dst=null perm=null")
	f.Add("garbage")
	f.Add("")
	f.Add("2012-07-05 10:00:00,abc INFO FSNamesystem.audit: cmd=open")
	f.Add(strings.Repeat("x", 300))
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := Parse(line)
		if err != nil {
			return
		}
		back, err := Parse(rec.Format())
		if err != nil {
			t.Fatalf("reparse of formatted record failed: %v", err)
		}
		if back != rec {
			t.Fatalf("format/parse not idempotent: %+v vs %+v", rec, back)
		}
	})
}

// FuzzDecodeJournal: DecodeEntries must never panic, and whatever it
// accepts must re-encode to the very bytes it was given. Each input runs
// twice: as given, where nearly every mutation dies at the checksum, and
// with its trailer re-sealed, so mutations reach the field decoders.
func FuzzDecodeJournal(f *testing.F) {
	j := NewJournal()
	for _, e := range sampleEntries() {
		j.Append(e)
	}
	var buf bytes.Buffer
	if err := EncodeEntries(&buf, j.Entries()); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(journalMagic))
	f.Add([]byte{})
	buf.Reset()
	if err := EncodeEntries(&buf, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	check := func(t *testing.T, data []byte) {
		entries, err := DecodeEntries(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeEntries(&out, entries); err != nil {
			t.Fatalf("re-encoding accepted journal: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted journal does not re-encode canonically (%d vs %d bytes)", out.Len(), len(data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= 8 {
			check(t, wire.Writer(append([]byte(nil), data[:len(data)-8]...)).Seal(0))
		}
	})
}

// FuzzJournalRoundTrip: whatever entries a journal is given, Entries, Tail
// and Each give back bit for bit. The input is read as entries, each an op
// byte, a two-byte mask of the fields present, eight bytes for each present
// number (Epoch is the writer epoch to set before appending, Size its IEEE
// bits) and a length byte and the bytes for Path and Dst. They are
// appended round and round until they cross a segment boundary, then the
// journal is truncated to a position the input's first byte picks.
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(OpRename), 0x01, 0x80, 2, '/', 'a', 2, '/', 'b', byte(OpReplicaAdd), 0x06, 0})
	f.Add([]byte{0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		var entries []Entry
		for len(in) > 0 && len(entries) < 64 {
			entries = append(entries, in.entry())
		}
		if len(entries) == 0 {
			return
		}
		j := NewJournal()
		m := &flatModel{start: 1, next: 1, epoch: 1}
		for i := 0; i < segmentCap+len(entries); i++ {
			e := entries[i%len(entries)]
			j.SetEpoch(e.Epoch)
			m.epoch = j.Epoch()
			j.Append(e)
			m.append(e)
		}
		if got := j.Entries(); !sameEntries(got, m.entries) {
			t.Fatalf("Entries() differs from what was appended")
		}
		upTo := uint64(data[0]) * 5
		j.TruncateTo(upTo)
		m.truncateTo(upTo)
		for _, from := range []uint64{upTo, segmentCap, segmentCap + 1, m.next - 1} {
			if got, want := j.Tail(from), m.tail(from); (got == nil) != (want == nil) || !sameEntries(got, want) {
				t.Fatalf("Tail(%d) = %d entries, model %d", from, len(got), len(want))
			}
			var each []Entry
			j.Each(from, func(e *Entry) bool {
				each = append(each, *e)
				return true
			})
			if want := m.tail(max(from, m.start)); !sameEntries(each, want) {
				t.Fatalf("Each(%d) visited %d entries, model %d", from, len(each), len(want))
			}
		}
	})
}

// fuzzInput reads FuzzJournalRoundTrip's entries; past its end it reads
// zeros.
type fuzzInput []byte

func (in *fuzzInput) next(n int) []byte {
	b := (*in)[:min(n, len(*in))]
	*in = (*in)[len(b):]
	return b
}

func (in *fuzzInput) u64() uint64 {
	var b [8]byte
	copy(b[:], in.next(8))
	return binary.LittleEndian.Uint64(b[:])
}

func (in *fuzzInput) entry() Entry {
	var e Entry
	if b := in.next(1); len(b) > 0 {
		e.Op = Op(b[0])
	}
	var m [2]byte
	copy(m[:], in.next(2))
	mask := binary.LittleEndian.Uint16(m[:])
	num := func(bit int) uint64 {
		if mask&(1<<bit) == 0 {
			return 0
		}
		return in.u64()
	}
	str := func(bit int) string {
		if mask&(1<<bit) == 0 {
			return ""
		}
		n := in.next(1)
		if len(n) == 0 {
			return ""
		}
		return string(in.next(int(n[0])))
	}
	e.Epoch, e.Time, e.File, e.Block = num(0), time.Duration(num(1)), int(num(2)), int64(num(3))
	e.Node, e.State, e.Target, e.K = int(num(4)), int(num(5)), int(num(6)), int(num(7))
	e.M, e.Index, e.Group = int(num(8)), int(num(9)), int(num(10))
	e.Size = math.Float64frombits(num(11))
	e.Path, e.Dst, e.Flag = str(12), str(13), mask&(1<<14) != 0
	return e
}
