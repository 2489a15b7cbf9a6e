package topology

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDefaultsMatchPaperTestbed(t *testing.T) {
	topo := New(Config{})
	if topo.NumNodes() != 18 {
		t.Fatalf("NumNodes = %d, want 18", topo.NumNodes())
	}
	if topo.NumRacks() != 3 {
		t.Fatalf("NumRacks = %d, want 3", topo.NumRacks())
	}
	perRack := map[int]int{}
	for _, n := range topo.Nodes {
		perRack[n.Rack]++
	}
	for r := 0; r < 3; r++ {
		if perRack[r] != 6 {
			t.Fatalf("rack %d has %d nodes, want 6", r, perRack[r])
		}
	}
}

func TestLinkKinds(t *testing.T) {
	topo := New(Config{Racks: 2, NodeCount: 4})
	counts := map[LinkKind]int{}
	for _, l := range topo.Links {
		counts[l.Kind]++
	}
	if counts[LinkDisk] != 4 || counts[LinkNICOut] != 4 || counts[LinkNICIn] != 4 {
		t.Fatalf("per-node link counts wrong: %v", counts)
	}
	if counts[LinkRackUp] != 2 || counts[LinkRackDown] != 2 {
		t.Fatalf("rack link counts wrong: %v", counts)
	}
	for k, s := range map[LinkKind]string{
		LinkDisk: "disk", LinkNICOut: "nic-out", LinkNICIn: "nic-in",
		LinkRackUp: "rack-up", LinkRackDown: "rack-down",
	} {
		if k.String() != s {
			t.Fatalf("Kind %d String = %q, want %q", k, k.String(), s)
		}
	}
	if LinkKind(99).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

func TestLocalReadPathIsDiskOnly(t *testing.T) {
	topo := New(Config{})
	p := topo.ReadPath(3, 3)
	if len(p) != 1 || p[0] != topo.Node(3).Disk {
		t.Fatalf("local read path = %v, want [disk]", p)
	}
}

func TestSameRackReadPath(t *testing.T) {
	topo := New(Config{})
	// Find two nodes in the same rack.
	nodes := topo.NodesInRack(0)
	src, dst := nodes[0], nodes[1]
	p := topo.ReadPath(src, dst)
	want := []LinkID{topo.Node(src).Disk, topo.Node(src).NICOut, topo.Node(dst).NICIn}
	if len(p) != 3 {
		t.Fatalf("same-rack path length = %d, want 3 (%v)", len(p), p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestCrossRackReadPathIncludesUplinks(t *testing.T) {
	topo := New(Config{})
	src := topo.NodesInRack(0)[0]
	dst := topo.NodesInRack(1)[0]
	p := topo.ReadPath(src, dst)
	if len(p) != 5 {
		t.Fatalf("cross-rack path length = %d, want 5", len(p))
	}
	if p[2] != topo.rackUp[0] || p[3] != topo.rackDown[1] {
		t.Fatalf("path missing rack hops: %v", p)
	}
}

func TestTransferPathAppendsDestDisk(t *testing.T) {
	topo := New(Config{})
	src := topo.NodesInRack(0)[0]
	dst := topo.NodesInRack(1)[0]
	p := topo.TransferPath(src, dst)
	if p[len(p)-1] != topo.Node(dst).Disk {
		t.Fatalf("transfer path must end at destination disk: %v", p)
	}
	if len(p) != len(topo.ReadPath(src, dst))+1 {
		t.Fatalf("transfer path length")
	}
	if lp := topo.TransferPath(src, src); len(lp) != 1 {
		t.Fatalf("same-node transfer path = %v", lp)
	}
}

func TestSameRackHelper(t *testing.T) {
	topo := New(Config{})
	r0 := topo.NodesInRack(0)
	r1 := topo.NodesInRack(1)
	if !topo.SameRack(r0[0], r0[1]) {
		t.Fatal("same-rack nodes reported as different")
	}
	if topo.SameRack(r0[0], r1[0]) {
		t.Fatal("cross-rack nodes reported as same")
	}
	if topo.Rack(r1[0]) != 1 {
		t.Fatalf("Rack = %d, want 1", topo.Rack(r1[0]))
	}
}

func TestUnbalancedRacks(t *testing.T) {
	topo := New(Config{Racks: 2, NodesPerRack: []int{1, 4}})
	if topo.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", topo.NumNodes())
	}
	if len(topo.NodesInRack(0)) != 1 || len(topo.NodesInRack(1)) != 4 {
		t.Fatal("rack membership wrong")
	}
}

func TestMismatchedRackSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Racks: 3, NodesPerRack: []int{1, 2}})
}

// Property: every node's links are distinct and every path consists of valid
// link IDs.
func TestQuickPathsValid(t *testing.T) {
	topo := New(Config{Racks: 3, NodeCount: 12})
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % topo.NumNodes())
		dst := NodeID(int(b) % topo.NumNodes())
		for _, p := range [][]LinkID{topo.ReadPath(src, dst), topo.TransferPath(src, dst)} {
			seen := map[LinkID]bool{}
			for _, l := range p {
				if l < 0 || int(l) >= len(topo.Links) {
					return false
				}
				if seen[l] {
					return false // no duplicate links on a path
				}
				seen[l] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Every path is built once, at its final capacity: one allocation whether
// it has one link or six. A cross-rack path used to grow a two-element
// literal twice, and TransferPath a third time.
func TestPathsAllocateOnce(t *testing.T) {
	topo := New(Config{})
	src, same, cross := topo.NodesInRack(0)[0], topo.NodesInRack(0)[1], topo.NodesInRack(1)[0]
	var sink []LinkID
	for _, dst := range []NodeID{src, same, cross} {
		for name, build := range map[string]func() []LinkID{
			"ReadPath":     func() []LinkID { return topo.ReadPath(src, dst) },
			"TransferPath": func() []LinkID { return topo.TransferPath(src, dst) },
		} {
			if n := testing.AllocsPerRun(100, func() { sink = build() }); n != 1 {
				t.Errorf("%s(%d, %d) allocates %v times, want 1", name, src, dst, n)
			}
			if len(sink) != cap(sink) {
				t.Errorf("%s(%d, %d): len %d, cap %d", name, src, dst, len(sink), cap(sink))
			}
		}
	}
}

// The append builders fill a caller's inline buffer without allocating and
// produce exactly what the allocating wrappers return.
func TestAppendPathsFillInlineBuffer(t *testing.T) {
	topo := New(Config{})
	src, same, cross := topo.NodesInRack(0)[0], topo.NodesInRack(0)[1], topo.NodesInRack(1)[0]
	var buf [MaxReadPath]LinkID
	for _, dst := range []NodeID{src, same, cross} {
		var got []LinkID
		if n := testing.AllocsPerRun(100, func() { got = topo.AppendReadPath(buf[:0], src, dst) }); n != 0 {
			t.Errorf("AppendReadPath(%d, %d) allocates %v times, want 0", src, dst, n)
		}
		if !slices.Equal(got, topo.ReadPath(src, dst)) {
			t.Errorf("AppendReadPath(%d, %d) = %v, ReadPath = %v", src, dst, got, topo.ReadPath(src, dst))
		}
	}
	var got []LinkID
	if n := testing.AllocsPerRun(100, func() { got = topo.AppendExternalPath(buf[:0], src) }); n != 0 {
		t.Errorf("AppendExternalPath(%d) allocates %v times, want 0", src, n)
	}
	if !slices.Equal(got, topo.ExternalPath(src)) {
		t.Errorf("AppendExternalPath(%d) = %v, ExternalPath = %v", src, got, topo.ExternalPath(src))
	}
}
