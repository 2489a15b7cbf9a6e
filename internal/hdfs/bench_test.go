package hdfs

import (
	"fmt"
	"testing"

	"erms/internal/sim"
	"erms/internal/topology"
)

func benchCluster(b *testing.B) (*sim.Engine, *Cluster) {
	b.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	return e, New(e, Config{Topology: topo})
}

// BenchmarkConcurrentReads measures the full read path — replica
// selection, session admission, flow simulation — for a burst of clients.
func BenchmarkConcurrentReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, c := benchCluster(b)
		if _, err := c.CreateFile("/f", 1024*mb, 3, 0); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			c.ReadFileAt(ExternalClient, "/f", k, nil)
		}
		e.Run()
	}
}

// BenchmarkSetReplicationWhole measures the grow machinery.
func BenchmarkSetReplicationWhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, c := benchCluster(b)
		if _, err := c.CreateFile("/f", 512*mb, 3, -1); err != nil {
			b.Fatal(err)
		}
		c.SetReplication("/f", 8, WholeAtOnce, nil)
		e.Run()
	}
}

// BenchmarkEncodeDecode measures the erasure lifecycle on the cluster.
func BenchmarkEncodeDecode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, c := benchCluster(b)
		if _, err := c.CreateFile("/f", 640*mb, 3, -1); err != nil {
			b.Fatal(err)
		}
		c.EncodeFile("/f", 10, 4, func(err error) {
			if err != nil {
				b.Fatal(err)
			}
			c.DecodeFile("/f", 3, nil)
		})
		e.Run()
	}
}

// BenchmarkChooseTargets isolates target selection on a loaded cluster,
// appending into a reused buffer the way CreateFile does.
func BenchmarkChooseTargets(b *testing.B) {
	_, c := benchCluster(b)
	for i := 0; i < 50; i++ {
		if _, err := c.CreateFile(fmt.Sprintf("/f%02d", i), 256*mb, 3, -1); err != nil {
			b.Fatal(err)
		}
	}
	blk, _ := c.Block(c.File("/f00").Blocks[0])
	p := c.PlacementPolicy()
	dst := make([]DatanodeID, 0, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = p.ChooseTargets(dst[:0], c, blk, 3, -1, nil)
	}
}

// BenchmarkCreateFile measures a one-block, three-replica create: the
// namespace entry, the block, its placement and three replica landings.
// Every batch of files is deleted again with the timer stopped, so the
// cluster stays the same size however long the benchmark runs.
func BenchmarkCreateFile(b *testing.B) {
	_, c := benchCluster(b)
	paths := make([]string, 1024)
	for i := range paths {
		paths[i] = fmt.Sprintf("/c%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(paths)
		if j == 0 && i > 0 {
			b.StopTimer()
			for _, p := range paths {
				if err := c.DeleteFile(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if _, err := c.CreateFile(paths[j], 32*mb, 3, topology.NodeID(i%18)); err != nil {
			b.Fatal(err)
		}
	}
}
