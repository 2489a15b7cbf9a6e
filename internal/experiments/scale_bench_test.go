package experiments

import (
	"fmt"
	"testing"
	"time"

	"erms/internal/hdfs"
	"erms/internal/netsim"
	"erms/internal/sim"
	"erms/internal/topology"
)

// The BenchmarkScale* suite pins the cost of the operations the 1,000-node
// sweep leans on: namespace creation (placement index), the read path at a
// large node count (per-link flow sets), under-replication queries
// (underSet), and bulk event scheduling (AtBatch). They run on a 300-node
// cluster — big enough that a linear scan would dominate, small enough for
// `make bench`.

const benchNodes = 300

func benchScaleCluster(b *testing.B, files int) (*sim.Engine, *hdfs.Cluster) {
	b.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: benchNodes / 6, NodeCount: benchNodes})
	c := hdfs.New(e, hdfs.Config{Topology: topo})
	bs := hdfs.BlockSize
	for i := 0; i < files; i++ {
		if _, err := c.CreateFile(fmt.Sprintf("/bench/f%06d", i), bs, 3, -1); err != nil {
			b.Fatal(err)
		}
	}
	return e, c
}

// BenchmarkScaleCreateFile measures per-file namespace churn on an
// already-populated large cluster: placement choice, block registration,
// index maintenance, and teardown. Each file is deleted again so the
// cluster never runs out of capacity at large b.N.
func BenchmarkScaleCreateFile(b *testing.B) {
	_, c := benchScaleCluster(b, 10000)
	bs := hdfs.BlockSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/new/f%09d", i)
		if _, err := c.CreateFile(path, bs, 3, -1); err != nil {
			b.Fatal(err)
		}
		if err := c.DeleteFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleRead measures the full read path (replica choice, flow
// simulation, completion) on a large populated cluster. Each op is the
// same deterministic batch of 200 reads — the rng reseeds per iteration —
// so every measurement does identical virtual work regardless of b.N.
func BenchmarkScaleRead(b *testing.B) {
	e, c := benchScaleCluster(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := sim.NewRand(1)
		for k := 0; k < 200; k++ {
			path := fmt.Sprintf("/bench/f%06d", rng.Intn(10000))
			client := topology.NodeID(rng.Intn(benchNodes))
			c.ReadFile(client, path, nil)
		}
		e.Run()
	}
}

// BenchmarkScaleUnderReplicated measures the under-replication query with
// a small deficit hiding in a large healthy namespace — the case the
// underSet index exists for.
func BenchmarkScaleUnderReplicated(b *testing.B) {
	_, c := benchScaleCluster(b, 10000)
	c.Kill(hdfs.DatanodeID(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.UnderReplicated(); len(got) == 0 {
			b.Fatal("expected a deficit after the kill")
		}
	}
}

// BenchmarkScaleEngineBatch measures bulk scheduling plus the drain: one
// AtBatch insert of 10,000 events, then running them down.
func BenchmarkScaleEngineBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		items := make([]sim.Timed, 10000)
		for k := range items {
			items[k] = sim.Timed{At: time.Duration(k) * time.Millisecond, Fn: func() {}}
		}
		e.AtBatch(items)
		e.Run()
	}
}

// BenchmarkScaleFabric measures flow admission and max-min reallocation on
// a 300-node fabric — the network side of the 1,000-node sweep.
func BenchmarkScaleFabric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		topo := topology.New(topology.Config{Racks: benchNodes / 6, NodeCount: benchNodes})
		fb := netsim.New(e, topo)
		for k := 0; k < 500; k++ {
			src := topology.NodeID(k % benchNodes)
			dst := topology.NodeID((k*7 + 1) % benchNodes)
			if src == dst {
				dst = topology.NodeID((int(dst) + 1) % benchNodes)
			}
			fb.StartFlow(topo.ReadPath(src, dst), 4*float64(topology.MB), 0, nil)
		}
		e.Run()
	}
}
