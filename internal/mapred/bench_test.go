package mapred

import (
	"fmt"
	"testing"

	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

func benchRun(b *testing.B, sched Scheduler) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		topo := topology.New(topology.Config{})
		h := hdfs.New(e, hdfs.Config{Topology: topo})
		mr := New(h, sched)
		for j := 0; j < 8; j++ {
			path := fmt.Sprintf("/in%d", j)
			if _, err := h.CreateFile(path, 512*mb, 3, topology.NodeID(j*2)); err != nil {
				b.Fatal(err)
			}
			if err := mr.Submit(&Job{Name: path, File: path}); err != nil {
				b.Fatal(err)
			}
		}
		e.Run()
	}
}

func BenchmarkFIFOWorkload(b *testing.B) { benchRun(b, NewFIFO()) }
func BenchmarkFairWorkload(b *testing.B) { benchRun(b, NewFair()) }
