// Coldarchive: the cold-data lifecycle — files nobody reads are
// Reed–Solomon encoded (one replica + four parities), reclaiming ~55% of
// their storage; a stripe then survives the loss of any four of its
// blocks, so a node failure afterwards is repaired by stripe
// reconstruction, but not a rack outage that takes more than four (the
// default standby set leaves active nodes on two racks, and an outage of
// either takes more than four blocks of each of this example's stripes);
// and a renewed burst of accesses decodes the file back to full
// triplication.
package main

import (
	"fmt"
	"time"

	"erms"
)

func main() {
	th := erms.DefaultThresholds()
	th.ColdAge = time.Hour // archive after an hour of silence (demo scale)
	sys := erms.NewSystem(erms.Options{Thresholds: th})

	// A warehouse directory: five 640 MB datasets, triplicated.
	for i := 0; i < 5; i++ {
		if err := sys.CreateFile(fmt.Sprintf("/warehouse/part-%d", i), 640*erms.MB); err != nil {
			panic(err)
		}
	}
	before := sys.StorageUsed()
	fmt.Printf("ingested 5 datasets: %.1f GB stored (3x replication)\n", before/erms.GB)

	// Nothing touches them; ERMS encodes them once they age past ColdAge.
	sys.RunFor(3 * time.Hour)
	after := sys.StorageUsed()
	fmt.Printf("after the cold sweep: %.1f GB stored (%.0f%% reclaimed)\n",
		after/erms.GB, (1-after/before)*100)
	for i := 0; i < 5; i++ {
		f := sys.HDFS().File(fmt.Sprintf("/warehouse/part-%d", i))
		fmt.Printf("  %s encoded=%v parity=%d data-replicas=%d\n",
			f.Path, f.Encoded, len(f.Parity()), sys.Replication(f.Path))
	}

	// Kill a datanode: each encoded block it held had only one replica,
	// but ERMS reconstructs every lost block from its stripe survivors
	// automatically (repair jobs run through Condor, immediately).
	f := sys.HDFS().File("/warehouse/part-0")
	victimBlock := f.Blocks[0]
	victim := sys.HDFS().Replicas(victimBlock)[0]
	lostBlocks := sys.HDFS().Datanode(victim).NumBlocks()
	sys.HDFS().Kill(victim)
	fmt.Printf("\nkilled %s (held %d single-replica blocks)\n",
		sys.HDFS().Datanode(victim).Name, lostBlocks)
	sys.RunFor(10 * time.Minute)
	fmt.Printf("lost blocks after the repair sweep: %d (repairs run: %d)\n",
		len(sys.HDFS().UnderReplicated()), sys.Manager().Stats().Repairs)
	fmt.Printf("block %d lives again on %v\n", victimBlock, sys.HDFS().Replicas(victimBlock))

	// Renewed interest: reads arrive, ERMS decodes immediately.
	for i := 0; i < 6; i++ {
		sys.Read(i, "/warehouse/part-1", nil)
	}
	sys.RunFor(20 * time.Minute)
	p1 := sys.HDFS().File("/warehouse/part-1")
	fmt.Printf("\nafter re-access, part-1: encoded=%v replication=%d\n",
		p1.Encoded, sys.Replication("/warehouse/part-1"))
	fmt.Printf("\nmanager stats: %+v\n", sys.Manager().Stats())
}
