package hdfs

import (
	"runtime/debug"
	"strings"
	"testing"

	"erms/internal/sim"
	"erms/internal/topology"
)

// TestReadPathAllocCeilings holds the read path to one allocation per file
// read — the fileRead, whose result done may keep — and none per block: the
// block-read record, its cached callbacks and the netsim Flow it embeds come
// back from the cluster's free list. Each run issues one read and drains the
// engine. When the walk and the block read were closures the path allocated
// 3 per read plus 10 per block: 13 for a 1-block read, 163 for a 16-block
// one; with a fresh record and Flow, 3 plus 1.
func TestReadPathAllocCeilings(t *testing.T) {
	if raceBuild() {
		t.Skip("the ceilings are for uninstrumented builds")
	}
	const perRead, perBlock = 1, 0
	e := sim.NewEngine()
	c := New(e, Config{Topology: topology.New(topology.Config{})}) // 18 nodes, 3 racks
	for _, f := range []struct {
		path   string
		blocks int
	}{{"/one", 1}, {"/sixteen", 16}} {
		if _, err := c.CreateFile(f.path, float64(f.blocks)*64*mb, 3, 0); err != nil {
			t.Fatal(err) // writer 0 holds a replica of every block
		}
	}
	offNode := topology.NodeID(17) // rack 2; the writer is in rack 0
	cases := []struct {
		name   string
		blocks int
		read   func(done func(*ReadResult))
	}{
		{"node-local/1", 1, func(done func(*ReadResult)) { c.ReadFile(0, "/one", done) }},
		{"node-local/16", 16, func(done func(*ReadResult)) { c.ReadFile(0, "/sixteen", done) }},
		{"off-node/1", 1, func(done func(*ReadResult)) { c.ReadFile(offNode, "/one", done) }},
		{"off-node/16", 16, func(done func(*ReadResult)) { c.ReadFile(offNode, "/sixteen", done) }},
		{"external/1", 1, func(done func(*ReadResult)) { c.ReadFile(ExternalClient, "/one", done) }},
		{"external/16", 16, func(done func(*ReadResult)) { c.ReadFile(ExternalClient, "/sixteen", done) }},
		{"ranged/2", 2, func(done func(*ReadResult)) { c.ReadRange(offNode, "/sixteen", 32*mb, 64*mb, done) }},
	}
	for _, tc := range cases {
		var res *ReadResult
		tc.read(func(r *ReadResult) { res = r })
		e.Run()
		if res == nil || res.Err != nil || res.NodeLocal+res.RackLocal+res.Remote != tc.blocks ||
			strings.HasPrefix(tc.name, "node-local") != (res.NodeLocal == tc.blocks) {
			t.Fatalf("%s: %+v, want %d clean block reads, node-local only for the writer", tc.name, res, tc.blocks)
		}
		n := testing.AllocsPerRun(50, func() { tc.read(nil); e.Run() })
		if ceiling := float64(perRead + perBlock*tc.blocks); n > ceiling {
			t.Errorf("%s: %v allocs/read, ceiling %v", tc.name, n, ceiling)
		}
	}
}

// raceBuild reports whether this test binary was built with -race, whose
// instrumentation allocates on its own account.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
