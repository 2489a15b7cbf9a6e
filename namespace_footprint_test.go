package erms_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"erms"
	"erms/internal/hdfs"
)

// TestNamespaceFootprint holds the namenode's live heap a one-block file:
// 20,000 files of 1 MB on one shard of 3 racks and 18 nodes under the
// shipped ERMS placement, created live (at most 215 bytes a file; 207
// measured), and the same namespace after Checkpoint and Restore into a
// fresh system (at most 245; 237.8 measured). A file keeps its 80-byte INode, its namespace-map and
// intern-table entries, its block list, one block-map entry, its replica
// list and the datanodes' block-set bits. The created case builds its
// paths before the first measurement and shares them with the namespace,
// so their bytes are not counted; a restore decodes its own path strings,
// so the restored case counts them.
func TestNamespaceFootprint(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector inflates every allocation")
	}
	if got := unsafe.Sizeof(hdfs.INode{}); got != 80 {
		t.Errorf("hdfs.INode is %d bytes, want 80", got)
	}
	const files, perFile, restoredPerFile = 20000, 215.0, 245.0
	opts := erms.Options{Racks: 3, Nodes: 18}
	sys := erms.NewSystem(opts)
	defer sys.Stop()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/ns/f%06d", i)
	}
	before := liveHeap()
	for _, p := range paths {
		if _, err := sys.HDFS().CreateFile(p, erms.MB, 0, -1); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(liveHeap()-before) / files
	runtime.KeepAlive(sys)
	t.Logf("created: %.1f bytes a one-block file", per)
	if per > perFile {
		t.Errorf("created: %.1f bytes a one-block file, want at most %.0f", per, perFile)
	}

	var ckpt bytes.Buffer
	if err := sys.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	standby := erms.NewSystem(opts)
	defer standby.Stop()
	before = liveHeap()
	if err := standby.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	per = float64(liveHeap()-before) / files
	runtime.KeepAlive(standby)
	if got := standby.StateDigest(); got != sys.StateDigest() {
		t.Fatalf("restored digest %#x, want %#x", got, sys.StateDigest())
	}
	t.Logf("restored: %.1f bytes a one-block file", per)
	if per > restoredPerFile {
		t.Errorf("restored: %.1f bytes a one-block file, want at most %.0f", per, restoredPerFile)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
