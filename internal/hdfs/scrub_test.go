package hdfs

import (
	"testing"
	"time"
)

// TestReadDetectsCorruptReplica: a client read that lands on a corrupt
// replica counts a checksum failure, quarantines the copy, and retries
// transparently on a clean one.
func TestReadDetectsCorruptReplica(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 3, 0)
	bid := f.Blocks[0]
	// Corrupt exactly the copy the selector will pick first, so the read is
	// guaranteed to trip the checksum and fail over.
	victim, _, ok := c.selectReplica(ExternalClient, bid, nil)
	if !ok {
		t.Fatal("no replica selectable")
	}
	if err := c.CorruptReplica(bid, victim); err != nil {
		t.Fatal(err)
	}
	var res *ReadResult
	c.ReadFile(ExternalClient, "/a", func(r *ReadResult) { res = r })
	e.RunUntil(30 * time.Minute)
	if res == nil {
		t.Fatal("read never completed")
	}
	if res.Err != nil {
		t.Fatalf("read should recover on a clean replica: %v", res.Err)
	}
	m := c.Metrics()
	if m.ChecksumFailures == 0 {
		t.Fatal("checksum failure not counted")
	}
	if m.CorruptDetected == 0 {
		t.Fatal("read-path detection not counted")
	}
	// Once detected, the bad copy must be gone from the block map.
	for _, r := range c.Replicas(bid) {
		if c.Datanode(r).CorruptBlock(bid) {
			t.Fatalf("corrupt replica on %d still credited", r)
		}
	}
	checkConsistency(t, c)
}

// TestScrubberDetectsPlainCorruption: the background scrubber finds a
// silently corrupted replica of a plain (un-encoded) block, quarantines
// it, and fires OnCorruptReplica so the manager can re-replicate.
func TestScrubberDetectsPlainCorruption(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 128*mb, 3, 0)
	bid := f.Blocks[0]
	victim := c.Replicas(bid)[0]
	if err := c.CorruptReplica(bid, victim); err != nil {
		t.Fatal(err)
	}

	var gotBlock BlockID
	var gotNode DatanodeID
	fired := 0
	c.OnCorruptReplica(func(b BlockID, dn DatanodeID) { fired++; gotBlock = b; gotNode = dn })

	stop := c.StartScrubber(ScrubConfig{Period: 10 * time.Second, BlocksPerScan: 100})
	defer stop()
	e.RunUntil(time.Minute)

	if fired != 1 {
		t.Fatalf("OnCorruptReplica fired %d times, want 1", fired)
	}
	if gotBlock != bid || gotNode != victim {
		t.Fatalf("corruption reported as (%d,%d), want (%d,%d)", gotBlock, gotNode, bid, victim)
	}
	if c.Metrics().CorruptDetected != 1 {
		t.Fatalf("CorruptDetected = %d", c.Metrics().CorruptDetected)
	}
	if got := len(c.Replicas(bid)); got != 2 {
		t.Fatalf("corrupt copy not quarantined: %d replicas", got)
	}
	for _, r := range c.Replicas(bid) {
		if r == victim {
			t.Fatal("victim still holds the block")
		}
	}
	checkConsistency(t, c)
}

// TestScrubberDetectsEncodedCorruption: corruption inside an erasure-coded
// stripe is caught by the stripe-wide scrub, which reports every member
// replica flagged corrupt — one rotted member, or every data and parity
// replica of the stripe at once — even though no plain replica comparison
// is possible.
func TestScrubberDetectsEncodedCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		all  bool // corrupt every member replica, not just one
	}{{"one member", false}, {"whole stripe", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e, c := newCluster(t)
			c.CreateFile("/a", 256*mb, 3, 0)
			encErr := error(nil)
			encDone := false
			c.EncodeFile("/a", 4, 2, func(err error) { encErr = err; encDone = true })
			e.RunUntil(30 * time.Minute)
			if !encDone || encErr != nil {
				t.Fatalf("encode: done=%v err=%v", encDone, encErr)
			}
			f := c.File("/a")
			if !f.Encoded || len(f.Parity()) == 0 {
				t.Fatal("file not encoded")
			}
			members := []BlockID{f.Blocks[0]}
			if tc.all {
				members = append(append([]BlockID{}, f.Blocks...), f.Parity()...)
			}
			corrupted := 0
			for _, bid := range members {
				reps := c.Replicas(bid)
				if len(reps) == 0 {
					t.Fatalf("stripe member %d has no replica", bid)
				}
				for _, dn := range reps {
					if err := c.CorruptReplica(bid, dn); err != nil {
						t.Fatal(err)
					}
					corrupted++
				}
			}

			fired := 0
			c.OnCorruptReplica(func(BlockID, DatanodeID) { fired++ })
			stop := c.StartScrubber(ScrubConfig{Period: 10 * time.Second, BlocksPerScan: 200})
			defer stop()
			e.RunFor(2 * time.Minute)

			if fired != corrupted {
				t.Fatalf("OnCorruptReplica fired %d times for %d corrupt replicas", fired, corrupted)
			}
			if got := c.Metrics().CorruptDetected; got != corrupted {
				t.Fatalf("CorruptDetected = %d, want %d", got, corrupted)
			}
			checkConsistency(t, c)
		})
	}
}

// TestLastCopyCorruptionNotDropped: when the corrupt replica is the only
// copy and the block is not erasure-protected, quarantining it would turn
// silent corruption into immediate data loss — the cluster must keep the
// copy and report it exactly once, no matter how many scrub passes see it.
func TestLastCopyCorruptionNotDropped(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 1, 0)
	bid := f.Blocks[0]
	only := c.Replicas(bid)[0]
	if err := c.CorruptReplica(bid, only); err != nil {
		t.Fatal(err)
	}
	fired := 0
	c.OnCorruptReplica(func(BlockID, DatanodeID) { fired++ })
	stop := c.StartScrubber(ScrubConfig{Period: 5 * time.Second, BlocksPerScan: 100})
	defer stop()
	e.RunUntil(time.Minute)

	if got := len(c.Replicas(bid)); got != 1 {
		t.Fatalf("last corrupt copy was dropped: %d replicas", got)
	}
	if c.Replicas(bid)[0] != only {
		t.Fatal("last copy moved off its holder")
	}
	if fired != 1 {
		t.Fatalf("OnCorruptReplica fired %d times, want exactly 1 (report-once)", fired)
	}
	if c.Metrics().CorruptDetected != 1 {
		t.Fatalf("CorruptDetected = %d, want 1", c.Metrics().CorruptDetected)
	}
	checkConsistency(t, c)
}

// TestCorruptReplicaValidation: corruption injection rejects unknown
// blocks and non-holders.
func TestCorruptReplicaValidation(t *testing.T) {
	_, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 2, 0)
	bid := f.Blocks[0]
	if err := c.CorruptReplica(BlockID(99999), 0); err == nil {
		t.Fatal("unknown block accepted")
	}
	holders := map[DatanodeID]bool{}
	for _, r := range c.Replicas(bid) {
		holders[r] = true
	}
	for _, d := range c.Datanodes() {
		if !holders[d.ID] {
			if err := c.CorruptReplica(bid, d.ID); err == nil {
				t.Fatal("non-holder accepted")
			}
			break
		}
	}
}

// TestScrubberScanRate: config arithmetic used in DESIGN.md §7.
func TestScrubberScanRate(t *testing.T) {
	cfg := ScrubConfig{Period: 30 * time.Second, BlocksPerScan: 50}
	want := 50.0 / 30.0
	if got := cfg.ScanRate(); got != want {
		t.Fatalf("ScanRate = %v, want %v", got, want)
	}
}
