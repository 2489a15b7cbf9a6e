package hdfs

import (
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

func TestClusterAccessors(t *testing.T) {
	e, c := newCluster(t, 16, 17)
	if c.Clock() != sim.Clock(e) || c.Fabric() == nil || c.Topology() == nil {
		t.Fatal("accessors nil")
	}
	if c.NumDatanodes() != 18 {
		t.Fatalf("NumDatanodes = %d", c.NumDatanodes())
	}
	if got := c.Config(); got.DefaultReplication != 3 || got.BlockSize != 64*mb {
		t.Fatalf("Config = %+v", got)
	}
	if len(c.Active()) != 16 || len(c.Standby()) != 2 {
		t.Fatalf("active/standby = %d/%d", len(c.Active()), len(c.Standby()))
	}
	if c.ActiveReads() != 0 {
		t.Fatal("no reads yet")
	}
	p := NewDefaultPolicy()
	c.SetPlacementPolicy(p)
	if c.PlacementPolicy() != p || p.Name() != "default-rack-aware" {
		t.Fatal("placement policy accessors")
	}
	var downs []DatanodeID
	c.OnDatanodeDown(func(id DatanodeID) { downs = append(downs, id) })
	c.Kill(3)
	if len(downs) != 1 || downs[0] != 3 {
		t.Fatalf("down callbacks = %v", downs)
	}
}

func TestActiveReadsGauge(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 128*mb, 3, 0)
	c.ReadFile(1, "/a", nil)
	c.ReadFile(2, "/a", nil)
	if c.ActiveReads() != 2 {
		t.Fatalf("ActiveReads = %d", c.ActiveReads())
	}
	e.Run()
	if c.ActiveReads() != 0 {
		t.Fatal("reads still counted after drain")
	}
}

func TestDatanodeGauges(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 64*mb, 1, 0)
	d := c.Datanode(0)
	if d.PendingAdds() != 0 {
		t.Fatal("pending adds at rest")
	}
	c.AddReplica(c.File("/a").Blocks[0], 5, nil)
	if c.Datanode(5).PendingAdds() != 1 {
		t.Fatalf("PendingAdds = %d during copy", c.Datanode(5).PendingAdds())
	}
	if c.Datanode(5).UncommittedFree() >= c.Datanode(5).Free() {
		t.Fatal("pending bytes not reserved")
	}
	e.Run()
	if c.Datanode(5).PendingAdds() != 0 {
		t.Fatal("pending adds not settled")
	}
	if got := d.OpenActiveInterval(e.Now()); got != e.Now() {
		t.Fatalf("OpenActiveInterval = %v", got)
	}
	c.ToStandby(0)
	if d.OpenActiveInterval(e.Now()) != 0 {
		t.Fatal("standby node has open interval")
	}
}

func TestStartDiskLoadOccupiesDisk(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/a", 64*mb, 1, 0)
	// Two capped streams on node 0's disk slow a local read.
	var plain, loaded time.Duration
	c.ReadFile(0, "/a", func(r *ReadResult) { plain = r.Duration() })
	e.Run()
	stop := c.StartDiskLoad(0, 2, 30*mb)
	if c.Datanode(0).Sessions() != 2 {
		t.Fatalf("sessions = %d with disk load", c.Datanode(0).Sessions())
	}
	c.ReadFile(0, "/a", func(r *ReadResult) { loaded = r.Duration() })
	e.RunFor(time.Minute)
	if loaded <= plain {
		t.Fatalf("disk load had no effect: %v vs %v", loaded, plain)
	}
	stop()
	stop() // idempotent
	if c.Datanode(0).Sessions() != 0 {
		t.Fatalf("sessions = %d after stop", c.Datanode(0).Sessions())
	}
}

func TestReadBlockDirect(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 3, 0)
	var gotBytes float64
	var gotLoc Locality
	c.ReadBlock(0, f.Blocks[0], func(b float64, loc Locality, err error) {
		if err != nil {
			t.Error(err)
		}
		gotBytes, gotLoc = b, loc
	})
	e.Run()
	if gotBytes != 64*mb || gotLoc != NodeLocal {
		t.Fatalf("bytes=%v loc=%v", gotBytes, gotLoc)
	}
	var badErr error
	c.ReadBlock(0, BlockID(9999), func(_ float64, _ Locality, err error) { badErr = err })
	e.Run()
	if badErr == nil {
		t.Fatal("missing block accepted")
	}
}

func TestAddReplicaErrorPaths(t *testing.T) {
	e, c := newCluster(t)
	f, _ := c.CreateFile("/a", 64*mb, 2, 0)
	bid := f.Blocks[0]
	errs := map[string]error{}
	collect := func(name string) func(error) {
		return func(err error) { errs[name] = err }
	}
	c.AddReplica(BlockID(777), 5, collect("missing block"))
	holder := c.Replicas(bid)[0]
	c.AddReplica(bid, holder, collect("already holds"))
	c.Kill(9)
	c.AddReplica(bid, 9, collect("dead target"))
	e.Run()
	for name, err := range errs {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// Lost-source error: kill all replicas then try to copy.
	for _, r := range append([]DatanodeID(nil), c.Replicas(bid)...) {
		c.Kill(r)
	}
	var srcErr error
	c.AddReplica(bid, 10, func(err error) { srcErr = err })
	e.Run()
	if srcErr == nil {
		t.Fatal("copy without live source accepted")
	}
}

func TestReconstructErrorPaths(t *testing.T) {
	e, c := newCluster(t)
	c.CreateFile("/plain", 64*mb, 3, 0)
	errs := map[string]error{}
	c.ReconstructBlock(BlockID(555), func(err error) { errs["missing"] = err })
	c.ReconstructBlock(c.File("/plain").Blocks[0], func(err error) { errs["unencoded"] = err })
	e.Run()
	for name, err := range errs {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// Reconstructing a block that is not lost is a no-op success.
	c.CreateFile("/cold", 320*mb, 3, 0)
	var encErr error
	c.EncodeFile("/cold", 5, 2, func(err error) { encErr = err })
	e.Run()
	if encErr != nil {
		t.Fatal(encErr)
	}
	var ok error = fmt_errorSentinel
	c.ReconstructBlock(c.File("/cold").Blocks[0], func(err error) { ok = err })
	e.Run()
	if ok != nil {
		t.Fatalf("healthy block reconstruct: %v", ok)
	}
}

var fmt_errorSentinel = errSentinel{}

type errSentinel struct{}

func (errSentinel) Error() string { return "callback never ran" }

func TestWriterHintOutOfRange(t *testing.T) {
	_, c := newCluster(t)
	if _, err := c.CreateFile("/a", 64*mb, 3, topology.NodeID(999)); err != nil {
		t.Fatal(err) // out-of-range hint degrades to no hint
	}
}
