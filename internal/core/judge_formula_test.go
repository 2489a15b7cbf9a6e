package core

import (
	"fmt"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// These tests pin the paper's formulas (1)-(6) at their exact boundary
// values: each threshold comparison is exercised one count below, at, and
// one count above the line, so a drift from strict to non-strict (or the
// reverse) in any formula fails a named case. Events are injected straight
// into the judge's typed CEP streams, bypassing the cluster's read path,
// so the counts are exact.

type judgeFix struct {
	t *testing.T
	e *sim.Engine
	c *hdfs.Cluster
	j *Judge
}

func newJudgeFix(t *testing.T, nodes int) *judgeFix {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 3, NodeCount: nodes})
	c := hdfs.New(e, hdfs.Config{Topology: topo})
	return &judgeFix{t: t, e: e, c: c, j: NewJudge(c, Thresholds{})}
}

func (f *judgeFix) create(path string, blocks, repl int) *hdfs.INode {
	f.t.Helper()
	size := float64(blocks) * hdfs.BlockSize
	if _, err := f.c.CreateFile(path, size, repl, -1); err != nil {
		f.t.Fatalf("create %s: %v", path, err)
	}
	return f.c.File(path)
}

// opens injects n file-open events for path at the current virtual time.
func (f *judgeFix) opens(path string, n int) {
	for i := 0; i < n; i++ {
		ev := accessSchema.Event(f.e.Now())
		ev.SetStr(accessPath, path)
		ev.SetStr(accessCmd, string(auditlog.CmdOpen))
		f.j.engine.Insert(ev)
	}
}

// blockReads injects n block-read events for one block, attributed to dn.
func (f *judgeFix) blockReads(path string, bid hdfs.BlockID, dn hdfs.DatanodeID, n int) {
	for i := 0; i < n; i++ {
		ev := blockSchema.Event(f.e.Now())
		ev.SetStr(blockPath, path)
		ev.SetNum(blockBlock, float64(bid))
		ev.SetNum(blockDatanode, float64(dn))
		f.j.engine.Insert(ev)
	}
}

// pass lets the previous window expire, injects opens for path and judges.
func (f *judgeFix) pass(path string, opens int) []Decision {
	f.e.RunUntil(f.e.Now() + 6*time.Minute)
	f.opens(path, opens)
	return f.j.Evaluate()
}

// byFormula filters decisions for path down to the given formula number.
func byFormula(ds []Decision, path string, formula int) []Decision {
	var out []Decision
	for _, d := range ds {
		if d.Path == path && d.Formula == formula {
			out = append(out, d)
		}
	}
	return out
}

// Formula (1): a file is hot when N_d / r > τ_M, strictly. Defaults: τ_M=8,
// r=3, so 24 opens sit exactly on the line and must not trigger.
func TestJudgeFormula1Boundary(t *testing.T) {
	cases := []struct {
		opens      int
		wantHot    bool
		wantTarget int
	}{
		{23, false, 0},
		{24, false, 0}, // 24/3 = τ_M exactly: not hot
		{25, true, 4},  // 25/3 > τ_M; r* = ceil(25/8) = 4
		{48, true, 6},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("opens=%d", tc.opens), func(t *testing.T) {
			f := newJudgeFix(t, 18)
			f.create("/f1", 1, 3)
			f.opens("/f1", tc.opens)
			got := byFormula(f.j.Evaluate(), "/f1", 1)
			if tc.wantHot {
				if len(got) != 1 {
					t.Fatalf("want one formula-1 decision, got %v", got)
				}
				d := got[0]
				if d.Action != ActionIncrease || d.Class != Hot || d.TargetRepl != tc.wantTarget {
					t.Fatalf("decision = %+v, want increase to %d", d, tc.wantTarget)
				}
			} else if len(got) != 0 {
				t.Fatalf("want no formula-1 decision at the boundary, got %v", got)
			}
		})
	}
}

// Formula (2): a single block with N_b / r > M_M marks the file hot. With
// M_M=12 and r=3 the line is 36 reads on one block.
func TestJudgeFormula2Boundary(t *testing.T) {
	cases := []struct {
		reads  int
		wantF2 bool
	}{
		{36, false}, // 36/3 = M_M exactly
		{37, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("reads=%d", tc.reads), func(t *testing.T) {
			f := newJudgeFix(t, 18)
			inode := f.create("/f2", 1, 3)
			f.blockReads("/f2", inode.Blocks[0], 0, tc.reads)
			ds := f.j.Evaluate()
			got := byFormula(ds, "/f2", 2)
			if tc.wantF2 != (len(got) == 1) {
				t.Fatalf("reads=%d: formula-2 decisions = %v, want present=%v", tc.reads, got, tc.wantF2)
			}
		})
	}
}

// Formula (3): the file is hot when the fraction of blocks with
// N_b / r > M_m exceeds ε, strictly. With 4 blocks and ε=0.5, 2 intense
// blocks (ratio exactly 0.5) must not trigger; 3 must. 35 reads per
// intense block keeps each below the formula-(2) line (35/3 < 12).
func TestJudgeFormula3Boundary(t *testing.T) {
	cases := []struct {
		intenseBlocks int
		wantF3        bool
	}{
		{2, false}, // 2/4 = ε exactly
		{3, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("intense=%d", tc.intenseBlocks), func(t *testing.T) {
			f := newJudgeFix(t, 18)
			inode := f.create("/f3", 4, 3)
			for i := 0; i < tc.intenseBlocks; i++ {
				// One serving node per block keeps every node at 35 reads,
				// below τ_DN, so formula (4) cannot outrank this one.
				f.blockReads("/f3", inode.Blocks[i], hdfs.DatanodeID(i), 35)
			}
			ds := f.j.Evaluate()
			if got := byFormula(ds, "/f3", 2); len(got) != 0 {
				t.Fatalf("formula 2 fired unexpectedly: %v", got)
			}
			got := byFormula(ds, "/f3", 3)
			if tc.wantF3 != (len(got) == 1) {
				t.Fatalf("intense=%d: formula-3 decisions = %v, want present=%v",
					tc.intenseBlocks, got, tc.wantF3)
			}
		})
	}
}

// Formula (4): a datanode serving more than τ_DN block reads in the window
// boosts its top contributing file. τ_DN=48, so 48 reads on one node sit
// on the line. The reads are split 25/24 (or 24/24) across two of the
// file's four blocks so neither formula (2) nor (3) can fire first and
// mask the attribution.
func TestJudgeFormula4Boundary(t *testing.T) {
	cases := []struct {
		first, second int
		wantF4        bool
	}{
		{24, 24, false}, // 48 = τ_DN exactly
		{25, 24, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("reads=%d", tc.first+tc.second), func(t *testing.T) {
			f := newJudgeFix(t, 18)
			inode := f.create("/f4", 4, 3)
			dn := f.c.Replicas(inode.Blocks[0])[0]
			f.blockReads("/f4", inode.Blocks[0], dn, tc.first)
			f.blockReads("/f4", inode.Blocks[1], dn, tc.second)
			ds := f.j.Evaluate()
			for _, formula := range []int{2, 3} {
				if got := byFormula(ds, "/f4", formula); len(got) != 0 {
					t.Fatalf("formula %d fired and would mask formula 4: %v", formula, got)
				}
			}
			got := byFormula(ds, "/f4", 4)
			if tc.wantF4 != (len(got) == 1) {
				t.Fatalf("%d reads on node %d: formula-4 decisions = %v, want present=%v",
					tc.first+tc.second, dn, got, tc.wantF4)
			}
		})
	}
}

// Formula (5): a file with r above the default cools down when
// N_d / r < τ_d, strictly, and only after CooldownWindows consecutive
// cooled passes. r=4, τ_d=1: 3 opens per window cools, 4 sits on the line.
func TestJudgeFormula5CooldownBoundary(t *testing.T) {
	pass := func(f *judgeFix, opens int) []Decision { return f.pass("/f5", opens) }

	t.Run("two_cooled_passes_trigger", func(t *testing.T) {
		f := newJudgeFix(t, 18)
		f.create("/f5", 1, 4)
		if ds := pass(f, 3); len(byFormula(ds, "/f5", 5)) != 0 {
			t.Fatalf("decision after one cooled pass: %v", ds)
		}
		ds := pass(f, 3)
		got := byFormula(ds, "/f5", 5)
		if len(got) != 1 || got[0].Action != ActionDecrease || got[0].TargetRepl != 3 {
			t.Fatalf("want decrease-to-3 after second cooled pass, got %v", ds)
		}
	})

	t.Run("boundary_ratio_never_cools", func(t *testing.T) {
		f := newJudgeFix(t, 18)
		f.create("/f5", 1, 4)
		for i := 0; i < 3; i++ {
			if ds := pass(f, 4); len(byFormula(ds, "/f5", 5)) != 0 { // 4/4 = τ_d exactly
				t.Fatalf("pass %d: cooled at the boundary ratio: %v", i, ds)
			}
		}
	})

	t.Run("streak_resets_on_warm_pass", func(t *testing.T) {
		f := newJudgeFix(t, 18)
		f.create("/f5", 1, 4)
		pass(f, 3) // streak 1
		if got := f.j.coolStreak[f.c.File("/f5").ID()]; got != 1 {
			t.Fatalf("streak after one cooled pass = %d, want 1", got)
		}
		pass(f, 4) // warm: streak resets, and a reset streak has no entry
		if _, ok := f.j.coolStreak[f.c.File("/f5").ID()]; ok {
			t.Fatal("warm pass left a coolStreak entry")
		}
		if ds := pass(f, 3); len(byFormula(ds, "/f5", 5)) != 0 { // streak 1 again
			t.Fatalf("cooled fired without consecutive passes: %v", ds)
		}
		if ds := pass(f, 3); len(byFormula(ds, "/f5", 5)) != 1 {
			t.Fatalf("cooled missing after streak rebuilt: %v", ds)
		}
		if n := len(f.j.coolStreak); n != 0 {
			t.Fatalf("a fired streak left %d entries", n)
		}
	})
}

// Formula (6), cold side: a file goes cold when N_d / r < τ_small AND its
// last access is more than ColdAge ago AND r is at most the default.
// Defaults: τ_small=0.5, ColdAge=2h. With r=2, one open in the window sits
// exactly on the ratio line; an age of exactly 2h sits on the age line.
func TestJudgeFormula6ColdBoundary(t *testing.T) {
	cases := []struct {
		name     string
		age      time.Duration
		opens    int
		wantCold bool
	}{
		{"age_exactly_coldage", 2 * time.Hour, 0, false},
		{"age_past_coldage", 2*time.Hour + time.Second, 0, true},
		{"ratio_exactly_tausmall", 2*time.Hour + time.Second, 1, false}, // 1/2 = τ_small
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newJudgeFix(t, 18)
			f.create("/f6", 1, 2) // CreatedAt = 0; never opened via audit
			f.e.RunUntil(tc.age)
			if tc.opens > 0 {
				f.opens("/f6", tc.opens)
			}
			ds := f.j.Evaluate()
			got := byFormula(ds, "/f6", 6)
			if tc.wantCold {
				if len(got) != 1 || got[0].Action != ActionEncode || got[0].TargetRepl != 1 {
					t.Fatalf("want encode-to-1 decision, got %v", ds)
				}
			} else if len(got) != 0 {
				t.Fatalf("cold fired at the boundary: %v", got)
			}
		})
	}
}

// Formula (6), decode side: an encoded file warms back up when
// N_d / r >= τ_d — non-strict, unlike the hot rule, so demand equal to
// the line already restores replication. r=3, τ_d=1: 3 opens trigger.
func TestJudgeDecodeBoundary(t *testing.T) {
	cases := []struct {
		opens      int
		wantDecode bool
	}{
		{2, false},
		{3, true}, // 3/3 = τ_d exactly: decode is >=, so this fires
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("opens=%d", tc.opens), func(t *testing.T) {
			f := newJudgeFix(t, 18)
			inode := f.create("/f6d", 1, 3)
			inode.Encoded = true // stand in for a completed EncodeFile
			f.opens("/f6d", tc.opens)
			ds := f.j.Evaluate()
			got := byFormula(ds, "/f6d", 6)
			if tc.wantDecode {
				if len(got) != 1 || got[0].Action != ActionDecode || got[0].TargetRepl != 3 {
					t.Fatalf("want decode-to-3 decision, got %v", ds)
				}
			} else if len(got) != 0 {
				t.Fatalf("decode fired below the line: %v", got)
			}
		})
	}
}

// optimalReplication's clamp: r* = ceil(N_d / τ_M) bounded below by the
// default factor and above by min(MaxReplication, cluster size).
func TestOptimalReplicationClamp(t *testing.T) {
	big := newJudgeFix(t, 18) // 18 nodes > MaxReplication 10
	cases := []struct {
		nd   float64
		want int
	}{
		{1, 3},   // below default: clamps up
		{24, 3},  // ceil(24/8) = 3 = default
		{25, 4},  // first value past the default
		{80, 10}, // ceil(80/8) = MaxReplication exactly
		{81, 10}, // clamped by MaxReplication
	}
	for _, tc := range cases {
		if got := big.j.optimalReplication(tc.nd); got != tc.want {
			t.Errorf("optimalReplication(%v) = %d, want %d", tc.nd, got, tc.want)
		}
	}

	small := newJudgeFix(t, 6) // cluster smaller than MaxReplication
	if got := small.j.optimalReplication(81); got != 6 {
		t.Errorf("optimalReplication(81) on 6 nodes = %d, want 6 (node clamp)", got)
	}
}
