package wire

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"
)

// TestDigestMatchesFNV pins Digest and the trailer to hash/fnv's FNV-1a-64
// over the same bytes: every stream and digest written before this package
// existed used it, and the goldens hold those values.
func TestDigestMatchesFNV(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{0, 1, 1 << 63, math.Float64bits(2.5)} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], 4) // the length prefix of "/a/b"
	h.Write(buf[:])
	io.WriteString(h, "/a/b")
	binary.LittleEndian.PutUint64(buf[:], 1)
	h.Write(buf[:])

	d := NewDigest()
	for _, v := range []uint64{0, 1, 1 << 63, math.Float64bits(2.5)} {
		d.U64(v)
	}
	d.Str("/a/b")
	d.Bool(true)
	if uint64(d) != h.Sum64() {
		t.Fatalf("Digest %#x, hash/fnv %#x", uint64(d), h.Sum64())
	}

	w := Begin(nil, "TESTMAGC", 3)
	w.Str("payload")
	sealed := w.Seal(0)
	h.Reset()
	h.Write(sealed[:len(sealed)-8])
	if got := binary.LittleEndian.Uint64(sealed[len(sealed)-8:]); got != h.Sum64() {
		t.Fatalf("trailer %#x, hash/fnv %#x", got, h.Sum64())
	}
}

func TestRoundTrip(t *testing.T) {
	w := Begin([]byte("prefix"), "TESTMAGC", 7)
	w.Uvarint(300)
	w.Varint(-5)
	w.F64(-1.25)
	w.Bool(true)
	w.Str("")
	w.Str("hello")
	w.Uvarint(3)
	w = append(w, "abc"...)
	w = binary.LittleEndian.AppendUint64(w, 0xdeadbeef)
	data := w.Seal(len("prefix"))[len("prefix"):]

	r, err := Open(data, "TESTMAGC", 7, "test")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Uvarint("u"); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint("v"); v != -5 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.F64("f"); v != -1.25 {
		t.Errorf("F64 = %v", v)
	}
	if !r.Bool("b") {
		t.Error("Bool = false")
	}
	if s1, s2 := r.Str("empty"), r.Str("s"); s1 != "" || s2 != "hello" {
		t.Errorf("Str = %q, %q", s1, s2)
	}
	if b := r.Bytes("blob", 8); string(b) != "abc" {
		t.Errorf("Bytes = %q", b)
	}
	if v := r.Fixed64("word"); v != 0xdeadbeef {
		t.Errorf("Fixed64 = %#x", v)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenChecksInOrder: length, then magic (naming both), then checksum,
// then version.
func TestOpenChecksInOrder(t *testing.T) {
	w := Begin(nil, "TESTMAGC", 2)
	w.Uvarint(1)
	good := w.Seal(0)
	foreign := append([]byte("OTHERMAG"), good[8:]...) // bad magic and checksum
	flipped := append([]byte(nil), good...)
	flipped[9] ^= 1
	for _, tc := range []struct {
		data []byte
		want []string
	}{
		{good[:15], []string{"too short"}},
		{foreign, []string{"magic", "OTHERMAG", "TESTMAGC"}},
		{flipped, []string{"checksum"}},
		{Begin(nil, "TESTMAGC", 3).Seal(0), []string{"unsupported version 3"}},
	} {
		_, err := Open(tc.data, "TESTMAGC", 2, "test")
		for _, want := range tc.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Open: err = %v, want it to mention %q", err, want)
			}
		}
	}
}

// TestReaderRejectsNonCanonical: an overlong varint, an overflowing one,
// a bool past 1, an over-long string and a truncated field all fail,
// naming the field, and every read after the first failure returns zero.
func TestReaderRejectsNonCanonical(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"overlong zero", "non-minimal varint", []byte{0x80, 0x00}},
		{"overlong 127", "non-minimal varint", []byte{0xff, 0x80, 0x00}},
		{"overflow", "varint overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"truncated", "unexpected EOF", []byte{0x80}},
		{"bool", "bad bool 2", []byte{0x02}},
		{"long string", "too large", binary.AppendUvarint(nil, maxString+1)},
		{"short string", "unexpected EOF", []byte{0x05, 'a'}},
	} {
		w := Begin(nil, "TESTMAGC", 1)
		w = append(w, tc.body...)
		r, err := Open(w.Seal(0), "TESTMAGC", 1, "test")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		switch tc.name {
		case "bool":
			r.Bool("field")
		case "long string", "short string":
			r.Str("field")
		default:
			r.Uvarint("field")
		}
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "test decode field") ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q naming the field", tc.name, err, tc.want)
		}
		if v := r.Uvarint("next"); v != 0 || r.Str("next") != "" || r.Fixed64("next") != 0 {
			t.Errorf("%s: reads after the error return non-zero", tc.name)
		}
	}
}
