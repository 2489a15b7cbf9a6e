package erms_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"erms"
)

// TestJournalFootprintOnChurn holds the in-memory journal to at most 32
// bytes an entry (an Entry struct is 152) on the churn-failover benchmark's
// op mix: four journaled shards, files of 4-12 MB created on a random node,
// then batches of 40 % creates, 30 % deletes and 30 % renames, many of them
// across shards, a virtual second a batch. Nothing truncates, so every
// shard's journal holds several full segments and the open one.
func TestJournalFootprintOnChurn(t *testing.T) {
	const nodes, preload, batches, batchOps = 18, 1000, 30, 100
	sys := erms.NewSystem(erms.Options{Racks: 3, Nodes: nodes, Shards: 4, EnableJournal: true, JudgePeriod: time.Minute})
	defer sys.Stop()
	rng := rand.New(rand.NewSource(7))
	var live []string
	nextID := 0
	fresh := func(prefix string) string {
		nextID++
		return fmt.Sprintf("/churn/%s%07d", prefix, nextID)
	}
	create := func() {
		p := fresh("f")
		if err := sys.CreateFileOn(p, float64(4096+rng.Intn(8193))*1024, 0, rng.Intn(nodes)); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	for i := 0; i < preload; i++ {
		create()
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < batchOps; i++ {
			switch x, k := rng.Float64(), rng.Intn(len(live)); {
			case x < 0.4:
				create()
			case x < 0.7:
				if err := sys.Delete(live[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				dst := fresh("r")
				if err := sys.Rename(live[k], dst); err != nil {
					t.Fatal(err)
				}
				live[k] = dst
			}
		}
		sys.RunFor(time.Second)
	}
	for i := 0; i < sys.Shards(); i++ {
		j := sys.Shard(i).Journal()
		per := float64(j.Footprint()) / float64(j.Len())
		t.Logf("shard %d: %d entries, %.1f bytes an entry", i, j.Len(), per)
		if j.Len() < 4*1024 || per > 32 {
			t.Errorf("shard %d: %d entries at %.1f bytes an entry, want at least 4,096 at no more than 32", i, j.Len(), per)
		}
	}
}
