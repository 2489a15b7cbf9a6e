package hdfs

import (
	"fmt"
	"testing"
	"time"

	"erms/internal/sim"
	"erms/internal/topology"
)

// TestDeleteDuringRepairDiscardsLandingCopy pins the fix for a crash the
// federation rename storm surfaced: DeleteFile drops a file's blocks while
// a repair copy is still in flight, and the copy's completion must discard
// the landed bytes rather than attach them. Attaching would leave the
// target's block set holding an ID whose block-map entry is nil — the next
// declareDead walk dereferences exactly that entry. The delete is injected
// at several offsets so it lands before the copy command dispatches
// (replCommandLatency is 1s), mid-transfer (a 128 MB block takes
// ~1s at the 125 MB/s NIC rate, so 1.5s is inside the flow), and after
// the copy already landed.
func TestDeleteDuringRepairDiscardsLandingCopy(t *testing.T) {
	for _, delay := range []time.Duration{0, 500 * time.Millisecond, 1500 * time.Millisecond, 3 * time.Second} {
		t.Run(fmt.Sprint(delay), func(t *testing.T) {
			e := sim.NewEngine()
			c := New(e, Config{Topology: topology.New(topology.Config{})})
			f, err := c.CreateFile("/race/f", 128*mb, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			bid := f.Blocks[0]
			var target DatanodeID = -1
			for _, d := range c.Datanodes() {
				if !d.HasBlock(bid) {
					target = d.ID
					break
				}
			}
			if target < 0 {
				t.Fatal("no free target for the repair copy")
			}
			fired := false
			var copyErr error
			c.AddReplica(bid, target, func(err error) { fired, copyErr = true, err })
			e.Schedule(delay, func() {
				if derr := c.DeleteFile("/race/f"); derr != nil {
					t.Errorf("delete: %v", derr)
				}
			})
			e.RunUntil(time.Minute)
			if !fired {
				t.Fatal("repair completion callback never fired")
			}
			// Whether the delete beat the copy (copyErr reports the dead
			// block) or the copy landed first and the delete detached it,
			// no node may still hold the ID afterwards.
			for _, d := range c.Datanodes() {
				if d.HasBlock(bid) {
					t.Fatalf("%s still holds block %d of a deleted file (copy err: %v)", d.Name, bid, copyErr)
				}
			}
			// The storm's crash signature: killing nodes walks every block
			// set through declareDead, dereferencing each ID's map entry.
			for _, d := range c.Datanodes() {
				c.Kill(d.ID)
			}
			e.RunUntil(2 * time.Minute)
		})
	}
}
