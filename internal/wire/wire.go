// Package wire is the frame every durable byte stream shares — the hdfs
// checkpoint, the auditlog journal, the federated envelope: 8-byte magic,
// uvarint version, payload, FNV-1a-64 little-endian trailer over the rest.
// Writer appends fields to one slice; Open checks the frame and returns a
// Reader that indexes the payload directly (no io.Reader in the varint
// loop a million-file restore lives in) and accepts only canonical
// varints, so what it decodes re-encodes to the same bytes. Digest is the
// same hash over words and strings, for state fingerprints.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

const (
	maxString = 1 << 20 // cap on a decoded string's length
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Writer is a stream under construction: fields are appended in place.
type Writer []byte

// Begin appends magic and version to dst and returns the stream.
func Begin(dst []byte, magic string, version uint64) Writer {
	w := Writer(append(dst, magic...))
	w.Uvarint(version)
	return w
}

// Uvarint appends v as a uvarint.
func (w *Writer) Uvarint(v uint64) { *w = binary.AppendUvarint(*w, v) }

// Varint appends v as a zig-zag varint.
func (w *Writer) Varint(v int64) { *w = binary.AppendVarint(*w, v) }

// F64 appends v's IEEE bits as a uvarint.
func (w *Writer) F64(v float64) { w.Uvarint(math.Float64bits(v)) }

// Bool appends v as one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		*w = append(*w, 1)
	} else {
		*w = append(*w, 0)
	}
}

// Str appends s, length-prefixed.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	*w = append(*w, s...)
}

// Seal appends the trailer, the checksum of w[start:], and returns the
// finished stream.
func (w Writer) Seal(start int) []byte {
	h := NewDigest()
	fold(&h, w[start:])
	return binary.LittleEndian.AppendUint64(w, uint64(h))
}

// Reader decodes a payload Open has checked. Its methods keep the first
// error, labelled with the field that met it, and return zeros after it:
// a decoder reads a list of fields and checks Err once.
type Reader struct {
	data   []byte
	blob   string // one string copy of data, made by the first Str
	off    int
	err    error
	prefix string
}

// Open checks data's length, magic, checksum and version, in that order,
// and returns a Reader over the rest of the payload. Every error it and
// the Reader return starts with errPrefix.
func Open(data []byte, magic string, version uint64, errPrefix string) (Reader, error) {
	if len(data) < len(magic)+8 {
		return Reader{}, fmt.Errorf("%s too short (%d bytes)", errPrefix, len(data))
	}
	if got := data[:len(magic)]; string(got) != magic {
		return Reader{}, fmt.Errorf("%s: magic %q is not %q", errPrefix, got, magic)
	}
	r := Reader{data: data[:len(data)-8], off: len(magic), prefix: errPrefix}
	h := NewDigest()
	fold(&h, r.data)
	if got := binary.LittleEndian.Uint64(data[len(r.data):]); got != uint64(h) {
		return Reader{}, fmt.Errorf("%s checksum mismatch (%#x != %#x)", errPrefix, got, uint64(h))
	}
	if v := r.Uvarint("version"); r.err == nil && v != version {
		return Reader{}, fmt.Errorf("%s: unsupported version %d (want %d)", errPrefix, v, version)
	}
	return r, r.err
}

// Err returns the first error a read met, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err against the field what, unless an error is already held.
func (r *Reader) Fail(what string, err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%s decode %s: %w", r.prefix, what, err)
	}
}

// End returns the first error, or an error if any payload is left unread.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.data) {
		r.err = fmt.Errorf("%s has %d trailing bytes", r.prefix, len(r.data)-r.off)
	}
	return r.err
}

// Uvarint reads a uvarint. An overlong encoding — one that ends in a zero
// byte after the first — is an error: it would not re-encode to itself.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	switch {
	case n == 0:
		r.Fail(what, io.ErrUnexpectedEOF)
	case n < 0:
		r.Fail(what, errors.New("varint overflow"))
	case n > 1 && r.data[r.off+n-1] == 0:
		r.Fail(what, errors.New("non-minimal varint"))
	default:
		r.off += n
		return v
	}
	return 0
}

// Varint reads a zig-zag varint, canonical as Uvarint.
func (r *Reader) Varint(what string) int64 {
	u := r.Uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

// F64 reads a float written by Writer.F64.
func (r *Reader) F64(what string) float64 { return math.Float64frombits(r.Uvarint(what)) }

// Bool reads a bool; anything but 0 or 1 is an error.
func (r *Reader) Bool(what string) bool {
	v := r.Uvarint(what)
	if v > 1 {
		r.Fail(what, fmt.Errorf("bad bool %d", v))
	}
	return v == 1
}

// Str reads a length-prefixed string of at most 1 MB, as a window of one
// string copy of the payload rather than an allocation of its own.
func (r *Reader) Str(what string) string {
	b := r.Bytes(what, maxString)
	if len(b) == 0 {
		return ""
	}
	if r.blob == "" {
		r.blob = string(r.data)
	}
	return r.blob[r.off-len(b) : r.off]
}

// Bytes reads a length-prefixed byte string of at most max bytes, as a
// window of the payload, not a copy.
func (r *Reader) Bytes(what string, max uint64) []byte {
	n := r.Uvarint(what)
	switch {
	case r.err != nil:
	case n > max:
		r.Fail(what, fmt.Errorf("length %d too large", n))
	case n > uint64(len(r.data)-r.off):
		r.Fail(what, io.ErrUnexpectedEOF)
	default:
		r.off += int(n)
		return r.data[r.off-int(n) : r.off]
	}
	return nil
}

// Fixed64 reads a little-endian 64-bit word.
func (r *Reader) Fixed64(what string) uint64 {
	if r.err == nil && len(r.data)-r.off >= 8 {
		r.off += 8
		return binary.LittleEndian.Uint64(r.data[r.off-8:])
	}
	r.Fail(what, io.ErrUnexpectedEOF)
	return 0
}

// Rest returns the unread payload, for a section another package decodes.
func (r *Reader) Rest() []byte { return r.data[r.off:] }

// Skip consumes the n bytes such a section took.
func (r *Reader) Skip(n int) { r.off += n }

// Digest is an FNV-1a-64 hash over little-endian words and length-prefixed
// strings. Start one with NewDigest.
type Digest uint64

// NewDigest returns an empty digest.
func NewDigest() Digest { return fnvOffset }

// U64 folds v in as eight little-endian bytes.
func (d *Digest) U64(v uint64) {
	for i := 0; i < 64; i += 8 {
		*d = (*d ^ Digest(byte(v>>i))) * fnvPrime
	}
}

// Bool folds v in as the word 0 or 1.
func (d *Digest) Bool(v bool) {
	if v {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// Str folds s in, prefixed by its length as a word.
func (d *Digest) Str(s string) {
	d.U64(uint64(len(s)))
	fold(d, s)
}

func fold[T ~string | ~[]byte](d *Digest, b T) {
	for i := 0; i < len(b); i++ {
		*d = (*d ^ Digest(b[i])) * fnvPrime
	}
}
