package experiments

import (
	"bytes"
	"testing"

	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// BenchmarkCheckpoint / BenchmarkRestore pin the failover budget: how
// fast the namenode can serialize its durable state and how fast a
// standby can load it. They use the same 300-node / 10,000-file cluster
// as the BenchmarkScale* suite. No baseline file holds their numbers:
// `make bench` prints them, and a regression shows in paired rounds of
// the parent and the change, `make benchpair PKG=./internal/experiments
// BENCH='Checkpoint|Restore'`, which appends each side's median to
// BENCH_trajectory.jsonl.

// BenchmarkCheckpoint measures the full checkpoint encode — namespace,
// block map, replica lists, node states, checksum trailer — reusing the
// buffer so allocation reflects the encoder, not the destination.
func BenchmarkCheckpoint(b *testing.B) {
	_, c := benchScaleCluster(b, 10000)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := c.WriteCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkRestore measures what a standby pays per commission: decode,
// verify the checksum, rebuild every derived index, and fast-forward the
// clock. Each iteration restores into a fresh cluster because restore
// requires a pristine target — that construction cost is part of the
// real commissioning path anyway.
func BenchmarkRestore(b *testing.B) {
	_, c := benchScaleCluster(b, 10000)
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		fresh := hdfs.New(e, hdfs.Config{
			Topology: topology.New(topology.Config{Racks: benchNodes / 6, NodeCount: benchNodes}),
		})
		if err := fresh.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
