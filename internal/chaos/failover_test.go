package chaos

import (
	"fmt"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// TestFailoverMidStorm: namenode crashes land in the middle of a datanode
// fault storm with reads in flight; every standby rebuilt from the rolling
// checkpoint plus journal tail must match the primary's durable state
// exactly and lose no recoverable block.
func TestFailoverMidStorm(t *testing.T) {
	e := sim.NewEngine()
	c := hdfs.New(e, hdfs.Config{
		Topology: topology.New(topology.Config{}),
		Heartbeat: hdfs.HeartbeatConfig{
			Enabled:     true,
			DeadTimeout: 2 * time.Minute,
		},
	})
	c.SetJournal(auditlog.NewJournal())
	for i := 0; i < 6; i++ {
		if _, err := c.CreateFile(fmt.Sprintf("/d/f%d", i), 192*mb, 3, topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Background reads keep transient work in flight across every crash.
	sim.NewTicker(e, 20*time.Second, func(now time.Duration) {
		c.ReadFile(topology.NodeID(int(now/time.Second)%6), fmt.Sprintf("/d/f%d", int(now/time.Minute)%6), nil)
	})

	fo, err := NewFailover(FailoverConfig{
		Cluster:         c,
		Interval:        3 * time.Minute,
		TruncateJournal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Stop()

	plan := Storm(StormConfig{
		Seed:            11,
		Duration:        30 * time.Minute,
		Nodes:           []hdfs.DatanodeID{0, 1, 2, 3, 4, 5, 6, 7, 8},
		Racks:           []int{1, 2},
		Crashes:         3,
		Downtime:        4 * time.Minute,
		Partitions:      1,
		Corruptions:     4,
		NamenodeCrashes: 3,
	})
	plan.Failover = fo
	rep := plan.Schedule(e, c)
	e.RunUntil(35 * time.Minute)

	if rep.PerKind["namenode-crash"] != 3 {
		t.Fatalf("namenode crashes applied = %d, report %+v", rep.PerKind["namenode-crash"], rep)
	}
	results := fo.Results()
	if len(results) != 3 {
		t.Fatalf("failover results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("failover %d at %s: %v", i, r.At, r.Err)
		}
		if !r.DigestMatch {
			t.Errorf("failover %d at %s: standby digest != primary (tail %d entries, ckpt age %s)",
				i, r.At, r.TailEntries, r.CheckpointAge)
		}
		if !r.ConsistencyOK {
			t.Errorf("failover %d at %s: standby fails consistency", i, r.At)
		}
		if r.RecoverableLost != 0 {
			t.Errorf("failover %d at %s: lost %d recoverable blocks", i, r.At, r.RecoverableLost)
		}
		if r.CheckpointBytes == 0 {
			t.Errorf("failover %d: empty checkpoint", i)
		}
		if r.CheckpointAge < 0 || r.CheckpointAge > 3*time.Minute {
			t.Errorf("failover %d: checkpoint age %s outside the snapshot interval", i, r.CheckpointAge)
		}
	}
	if errs := c.ConsistencyErrors(); errs != nil {
		t.Fatalf("primary inconsistent after storm: %v", errs)
	}
}

// TestNamenodeCrashNeedsHarness: a plan without a Failover harness skips
// namenode crashes instead of failing.
func TestNamenodeCrashNeedsHarness(t *testing.T) {
	e, c := newCluster(t)
	p := &Plan{Events: []Event{{At: time.Second, Kind: NamenodeCrash}}}
	rep := p.Schedule(e, c)
	e.RunUntil(2 * time.Second)
	if rep.Applied != 0 || rep.Skipped != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestFailoverGuards: the harness refuses to start without a journal, and
// an explicit Snapshot tightens the next crash's tail.
func TestFailoverGuards(t *testing.T) {
	e, c := newCluster(t)
	if _, err := NewFailover(FailoverConfig{Cluster: c}); err == nil {
		t.Fatal("harness accepted a journal-less cluster")
	}

	c.SetJournal(auditlog.NewJournal())
	if _, err := c.CreateFile("/a", 128*mb, 3, 0); err != nil {
		t.Fatal(err)
	}
	fo, err := NewFailover(FailoverConfig{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Stop()
	if _, err := c.CreateFile("/b", 128*mb, 3, 1); err != nil {
		t.Fatal(err)
	}
	e.RunFor(30 * time.Second)
	before := fo.Crash()
	if before.Err != nil || !before.DigestMatch || before.TailEntries == 0 {
		t.Fatalf("crash before manual snapshot: %+v", before)
	}
	if err := fo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after := fo.Crash()
	if after.Err != nil || !after.DigestMatch {
		t.Fatalf("crash after manual snapshot: %+v", after)
	}
	if after.TailEntries != 0 {
		t.Fatalf("tail after fresh snapshot = %d entries", after.TailEntries)
	}
}
