package hdfs

import (
	"bytes"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/sim"
)

// expectAbove fails unless path's membership in the above-default set is
// want and the cluster's indexes, that set's included, agree with a recount.
func expectAbove(t *testing.T, c *Cluster, path string, want bool, step string) {
	t.Helper()
	in := false
	for _, f := range c.AboveDefault() {
		in = in || f.Path == path
	}
	if in != want {
		t.Fatalf("%s: %s above default = %v, want %v (replication %d)", step, path, in, want, c.ReplicationOf(path))
	}
	if errs := c.ConsistencyErrors(); errs != nil {
		t.Fatalf("%s: %v", step, errs)
	}
}

// TestAboveDefaultIndex moves a file into and out of the above-default set
// through every transition that changes a first data block's replica count
// or rebuilds the set, checking it against ConsistencyErrors' recount after
// each step.
func TestAboveDefaultIndex(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *sim.Engine, c *Cluster)
	}{
		{"set_replication_up_and_down", func(t *testing.T, e *sim.Engine, c *Cluster) {
			c.CreateFile("/x", 128*mb, 3, -1)
			expectAbove(t, c, "/x", false, "created at the default")
			c.SetReplication("/x", 5, WholeAtOnce, nil)
			e.Run()
			expectAbove(t, c, "/x", true, "raised to 5")
			c.SetReplication("/x", 3, WholeAtOnce, nil)
			expectAbove(t, c, "/x", false, "lowered to 3")
		}},
		{"kill_and_restart_with_blocks", func(t *testing.T, e *sim.Engine, c *Cluster) {
			f, _ := c.CreateFile("/x", 64*mb, 3, -1)
			b := f.Blocks[0]
			victim := c.Replicas(b)[0]
			c.Kill(victim)
			expectAbove(t, c, "/x", false, "a replica's node killed")
			c.SetReplication("/x", 3, WholeAtOnce, nil) // re-replicate the lost copy
			e.Run()
			expectAbove(t, c, "/x", false, "re-replicated to 3")
			// The node comes back with its disk: this model's Restart wipes
			// it, so the block report re-registers the surviving replica,
			// and the file is one copy over until a shrink sheds it.
			c.Restart(victim)
			c.attachReplica(b, victim)
			expectAbove(t, c, "/x", true, "restarted node reported its replica")
			c.SetReplication("/x", 3, WholeAtOnce, nil)
			expectAbove(t, c, "/x", false, "excess shed")
		}},
		{"delete", func(t *testing.T, e *sim.Engine, c *Cluster) {
			c.CreateFile("/x", 128*mb, 4, -1)
			expectAbove(t, c, "/x", true, "created at 4")
			c.DeleteFile("/x")
			expectAbove(t, c, "/x", false, "deleted")
		}},
		{"same_shard_rename", func(t *testing.T, e *sim.Engine, c *Cluster) {
			c.CreateFile("/x", 64*mb, 4, -1)
			if err := c.Rename("/x", "/y"); err != nil {
				t.Fatal(err)
			}
			expectAbove(t, c, "/y", true, "renamed")
			expectAbove(t, c, "/x", false, "renamed away")
		}},
		{"encode_and_decode", func(t *testing.T, e *sim.Engine, c *Cluster) {
			c.CreateFile("/x", 128*mb, 4, -1)
			c.EncodeFile("/x", 2, 1, nil)
			e.Run()
			if !c.File("/x").Encoded {
				t.Fatal("encode did not complete")
			}
			expectAbove(t, c, "/x", false, "encoded to one copy")
			c.DecodeFile("/x", 4, nil)
			e.Run()
			expectAbove(t, c, "/x", true, "decoded to 4")
		}},
		{"checkpoint_restore", func(t *testing.T, e *sim.Engine, c *Cluster) {
			c.CreateFile("/x", 128*mb, 4, -1)
			c.CreateFile("/y", 64*mb, 3, -1)
			var ckpt bytes.Buffer
			if err := c.WriteCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			c2 := New(sim.NewEngine(), c.cfg)
			expectAbove(t, c2, "/x", false, "pristine standby")
			if err := c2.RestoreCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			expectAbove(t, c2, "/x", true, "restored")
			expectAbove(t, c2, "/y", false, "restored at the default")
		}},
		{"journal_replay", func(t *testing.T, e *sim.Engine, c *Cluster) {
			c.SetJournal(auditlog.NewJournal())
			c.CreateFile("/x", 64*mb, 3, -1)
			c.CreateFile("/gone", 128*mb, 5, -1)
			var ckpt bytes.Buffer
			if err := c.WriteCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			seq := c.Journal().NextSeq()
			c.SetReplication("/x", 4, WholeAtOnce, nil)
			e.Run()
			first := c.File("/gone").Blocks[0]
			c.DeleteFile("/gone")
			c2 := New(sim.NewEngine(), c.cfg)
			if err := c2.RestoreCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			expectAbove(t, c2, "/x", false, "standby at the checkpoint")
			expectAbove(t, c2, "/gone", true, "standby at the checkpoint")
			// Replay drops a deleted file's blocks one by one, so a tail cut
			// just after its first block leaves the second block first,
			// with all its copies: the file is above default again.
			tail := c.Journal().Tail(seq)
			cut := 0
			for tail[cut].Op != auditlog.OpBlockDrop || tail[cut].Block != int64(first) {
				cut++
			}
			if err := c2.ReplayJournal(tail[:cut+1]); err != nil {
				t.Fatal(err)
			}
			expectAbove(t, c2, "/x", true, "tail replayed to the first block drop")
			expectAbove(t, c2, "/gone", true, "tail replayed to the first block drop")
			if err := c2.ReplayJournal(tail[cut+1:]); err != nil {
				t.Fatal(err)
			}
			expectAbove(t, c2, "/gone", false, "tail replayed")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, c := newCluster(t)
			e.RunUntil(time.Second)
			tc.run(t, e, c)
		})
	}
}
