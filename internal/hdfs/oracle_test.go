package hdfs

import (
	"fmt"
	"testing"
	"time"
)

// TestConsistencyToleratesFractionalSizes: a node's Used is a running sum
// of adds and frees, the oracle's recount a fresh sum; with fractional
// block sizes the two differ by rounding, and at a few GB per node one ulp
// already exceeds an absolute 1e-6-byte tolerance. A healthy cluster must
// not trip the "Used != sum of block sizes" check — and a genuinely lost
// byte still must.
func TestConsistencyToleratesFractionalSizes(t *testing.T) {
	e, c := newCluster(t)
	for i := 0; i < 400; i++ {
		if _, err := c.CreateFile(fmt.Sprintf("/frac/f%03d", i), 100*mb/3+float64(i)*0.137, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i += 3 {
		if err := c.DeleteFile(fmt.Sprintf("/frac/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	e.RunFor(10 * time.Minute)
	checkConsistency(t, c)

	c.datanodes[0].Used++
	if c.ConsistencyErrors() == nil {
		t.Error("a one-byte error in a node's Used went unnoticed")
	}
}

// TestUnrecoverableIgnoresParityInFlight: EncodeFile registers a stripe's
// parity blocks before their transfers land. Until the file is Encoded
// they hold no replica and protect nothing, so the durability oracle must
// not report them lost; once encoded, a parity with no copies is judged
// like any other stripe member.
func TestUnrecoverableIgnoresParityInFlight(t *testing.T) {
	e, c := newCluster(t)
	f, err := c.CreateFile("/cold/a", 640*mb, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var encErr error
	c.EncodeFile("/cold/a", 10, 4, func(err error) { encErr = err })
	if len(f.Parity()) != 4 || f.Encoded {
		t.Fatalf("mid-encode: %d parities registered, encoded=%v", len(f.Parity()), f.Encoded)
	}
	if lost := c.UnrecoverableBlocks(); lost != nil {
		t.Errorf("mid-encode parities reported lost: %v", lost)
	}
	e.RunFor(30 * time.Minute)
	if encErr != nil || !f.Encoded {
		t.Fatalf("encode: err=%v encoded=%v", encErr, f.Encoded)
	}
	if lost := c.UnrecoverableBlocks(); lost != nil {
		t.Errorf("after encode: %v", lost)
	}
	// RS(10,4) survives four lost members and not a fifth — and a data
	// block of a plain file with no copies is lost outright.
	for i, bid := range append(append([]BlockID{}, f.Parity()...), f.Blocks[0]) {
		for _, dn := range append([]DatanodeID{}, c.Replicas(bid)...) {
			c.Kill(dn)
		}
		if lost := c.UnrecoverableBlocks(); (len(lost) > 0) != (i == 4) {
			t.Fatalf("after losing %d stripe members: lost=%v", i+1, lost)
		}
	}
}
