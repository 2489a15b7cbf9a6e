package erms_test

import (
	"fmt"
	"runtime"
	"testing"

	"erms"
)

// TestNamespaceFootprint holds the namenode's live heap to at most 275
// bytes a one-block file: 20,000 files of 1 MB created on one shard of 3
// racks and 18 nodes under the shipped ERMS placement. A file keeps its
// INode, its namespace-map and intern-table entries, its block list, one
// block-map entry, its replica list and the datanodes' block-set bits. The
// paths are built before the first measurement and shared with the
// namespace, so their bytes are not counted.
func TestNamespaceFootprint(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector inflates every allocation")
	}
	const files, perFile = 20000, 275.0
	sys := erms.NewSystem(erms.Options{Racks: 3, Nodes: 18})
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
	t.Logf("%.1f bytes a one-block file", per)
	if per > perFile {
		t.Errorf("%.1f bytes a one-block file, want at most %.0f", per, perFile)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
