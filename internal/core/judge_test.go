package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"erms/internal/hdfs"
)

// refTopContributor is the per-datanode scan the judge ran before the
// one-walk index, kept verbatim as the oracle: for one datanode, sort the
// window's paths, walk all their blocks, keep the path with the strictly
// largest count on that node.
func refTopContributor(c *hdfs.Cluster, dn hdfs.DatanodeID, blockCnt map[string]map[hdfs.BlockID]float64) (string, float64, bool) {
	best := ""
	var bestCnt, bestTotal float64
	paths := make([]string, 0, len(blockCnt))
	for p := range blockCnt {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		f := c.File(path)
		if f == nil || f.Encoded {
			continue
		}
		var onNode, total float64
		for bid, cnt := range blockCnt[path] {
			total += cnt
			for _, r := range c.Replicas(bid) {
				if r == dn {
					onNode += cnt
					break
				}
			}
		}
		if onNode > bestCnt {
			best, bestCnt, bestTotal = path, onNode, total
		}
	}
	return best, bestTotal, best != ""
}

// TestTopContributorsMatchReference: over 25 seeded random clusters the
// one-walk index must name, for every datanode, exactly the (path, total,
// ok) the old per-datanode scan names. The clusters include encoded files,
// paths deleted while their reads are still in the window, datanodes
// holding nothing, and exact ties in on-node count (block counts are drawn
// from 0..3, so several paths share a node's maximum).
func TestTopContributorsMatchReference(t *testing.T) {
	ties := 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := newJudgeFix(t, 12+rng.Intn(13))
		nodes := f.c.NumDatanodes()
		// The last two nodes hold nothing: they sit in standby while the
		// files are placed.
		idle := []hdfs.DatanodeID{hdfs.DatanodeID(nodes - 2), hdfs.DatanodeID(nodes - 1)}
		for _, id := range idle {
			f.c.ToStandby(id)
		}
		var deleted []string
		skipped := map[string]bool{}
		for i, n := 0, 20+rng.Intn(40); i < n; i++ {
			path := fmt.Sprintf("/t/f%03d", i)
			inode := f.create(path, 1+rng.Intn(4), 1+rng.Intn(4))
			for _, bid := range inode.Blocks {
				// 0 reads: the block is not in the window.
				f.blockReads(path, bid, f.c.Replicas(bid)[0], rng.Intn(4))
			}
			switch rng.Intn(6) {
			case 0:
				inode.Encoded = true // stand in for a completed EncodeFile
				skipped[path] = true
			case 1:
				deleted = append(deleted, path)
				skipped[path] = true
			}
		}
		for _, path := range deleted {
			if err := f.c.DeleteFile(path); err != nil {
				t.Fatalf("seed %d: delete %s: %v", seed, path, err)
			}
		}

		f.j.Evaluate() // fills j.groups from the window
		blockCnt := map[string]map[hdfs.BlockID]float64{}
		for _, g := range f.j.groups {
			blockCnt[g.path] = map[hdfs.BlockID]float64{}
			for _, b := range g.blocks {
				blockCnt[g.path][b.id] = b.cnt
			}
		}
		top := f.j.topContributors()
		if len(top) != nodes {
			t.Fatalf("seed %d: index covers %d datanodes, cluster has %d", seed, len(top), nodes)
		}
		named := 0
		for dn := 0; dn < nodes; dn++ {
			wantPath, wantTotal, wantOK := refTopContributor(f.c, hdfs.DatanodeID(dn), blockCnt)
			got := top[dn]
			if got.path != wantPath || (got.path != "") != wantOK || (wantOK && got.total != wantTotal) {
				t.Fatalf("seed %d datanode %d: index (%q, %v), reference (%q, %v, %v)",
					seed, dn, got.path, got.total, wantPath, wantTotal, wantOK)
			}
			if !wantOK {
				continue
			}
			named++
			if skipped[got.path] {
				t.Fatalf("seed %d datanode %d: encoded or deleted path %s named", seed, dn, got.path)
			}
			// A tie: some other live path matches the winner's count here.
			for path, blocks := range blockCnt {
				if path != got.path && !skipped[path] && onNode(f.c, hdfs.DatanodeID(dn), blocks) == got.onNode {
					ties++
					break
				}
			}
		}
		for _, id := range idle {
			if top[id].path != "" {
				t.Fatalf("seed %d: empty datanode %d has top contributor %q", seed, id, top[id].path)
			}
		}
		if named == 0 || len(skipped) == 0 {
			t.Fatalf("seed %d: %d datanodes named, %d paths skipped; the case checks nothing", seed, named, len(skipped))
		}
	}
	if ties == 0 {
		t.Fatal("no datanode saw an exact tie in on-node count; the tie-break went unchecked")
	}
}

// onNode sums a path's window counts over its blocks held by dn.
func onNode(c *hdfs.Cluster, dn hdfs.DatanodeID, blocks map[hdfs.BlockID]float64) float64 {
	var sum float64
	for bid, cnt := range blocks {
		for _, r := range c.Replicas(bid) {
			if r == dn {
				sum += cnt
				break
			}
		}
	}
	return sum
}

// TestCoolStreakStaysSparse pins the map's contract: only a live streak
// has an entry, so a pass over idle files at default replication writes
// nothing, and rename and delete carry or drop the entry. (The reset of an
// interrupted streak is TestJudgeFormula5CooldownBoundary's.)
func TestCoolStreakStaysSparse(t *testing.T) {
	t.Run("idle_files_write_nothing", func(t *testing.T) {
		f := newJudgeFix(t, 18)
		for i := 0; i < 200; i++ {
			f.create(fmt.Sprintf("/idle/f%03d", i), 1, 0)
		}
		for i := 0; i < 3; i++ {
			f.j.Evaluate()
			if n := len(f.j.coolStreak); n != 0 {
				t.Fatalf("pass %d over idle files left %d coolStreak entries", i, n)
			}
		}
	})

	t.Run("rename_migrates_delete_drops", func(t *testing.T) {
		f := newJudgeFix(t, 18)
		f.create("/old", 1, 4)
		f.create("/gone", 1, 4)
		f.pass("/old", 3) // both look cooled: streak 1 each
		if err := f.c.Rename("/old", "/new"); err != nil {
			t.Fatal(err)
		}
		if err := f.c.DeleteFile("/gone"); err != nil {
			t.Fatal(err)
		}
		if len(f.j.coolStreak) != 1 || f.j.coolStreak["/new"] != 1 {
			t.Fatalf("coolStreak after rename+delete = %v, want only /new:1", f.j.coolStreak)
		}
		// The migrated streak counts: one more cooled pass fires under the
		// new name.
		if ds := f.pass("/new", 3); len(byFormula(ds, "/new", 5)) != 1 {
			t.Fatalf("renamed file lost its streak: %v", ds)
		}
	})
}
