package auditlog

import (
	"bytes"
	"strings"
	"testing"

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
