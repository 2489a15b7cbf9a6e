package core

import (
	"fmt"
	"testing"
	"time"

	"erms/internal/hdfs"
)

// These tests drive the judge end-to-end through the cluster's ranged-read
// path (hdfs.ReadRange) rather than injecting CEP events directly: real
// preads audit as cmd=pread (invisible to formula (1)'s open count) while
// their block reads still feed the block stream — so the ε and M_M axes
// (formulas 2–3) fire on their own. Before ReadRange existed, whole-file
// reads made block counts track open counts and these axes were documented
// inert; each case here pins the exact threshold under pread traffic.

const testMB = 1 << 20

// pread issues n ranged reads of one 16 MB slice of the given block and
// drains the engine, so the judge's block stream sees exactly n reads of
// that block and the audit log sees n preads (zero opens).
func (f *judgeFix) pread(path string, blockIdx, n int) {
	f.t.Helper()
	bs := hdfs.BlockSize
	for i := 0; i < n; i++ {
		f.c.ReadRange(hdfs.ExternalClient, path, float64(blockIdx)*bs, 16*testMB, func(r *hdfs.ReadResult) {
			if r.Err != nil {
				f.t.Fatalf("pread of %s block %d: %v", path, blockIdx, r.Err)
			}
		})
	}
	f.e.Run()
}

// Formula (2) under ranged reads: one block crossing N_b / r > M_M marks
// the file hot with zero file-level opens. M_M=12, r=3: the line is 36
// preads on one block; formula (1) must stay silent throughout.
func TestJudgeRangedFormula2Boundary(t *testing.T) {
	cases := []struct {
		preads int
		wantF2 bool
	}{
		{36, false}, // 36/3 = M_M exactly
		{37, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("preads=%d", tc.preads), func(t *testing.T) {
			f := newJudgeFix(t, 18)
			f.create("/r2", 1, 3)
			f.pread("/r2", 0, tc.preads)
			ds := f.j.Evaluate()
			if got := byFormula(ds, "/r2", 1); len(got) != 0 {
				t.Fatalf("formula 1 fired on preads (opens should be zero): %v", got)
			}
			got := byFormula(ds, "/r2", 2)
			if tc.wantF2 != (len(got) == 1) {
				t.Fatalf("preads=%d: formula-2 decisions = %v, want present=%v", tc.preads, got, tc.wantF2)
			}
			if tc.wantF2 {
				if got[0].Action != ActionIncrease || got[0].Class != Hot {
					t.Fatalf("formula-2 decision = %+v, want hot increase", got[0])
				}
			}
		})
	}
}

// Formula (3) under ranged reads: the file is hot when more than ε of its
// blocks are individually intense (N_b / r > M_m). M_m=6, r=3: a block is
// intense past 18 preads. With 4 blocks and ε=0.5, 2 intense blocks sit on
// the line; 3 trigger. 35 preads per intense block stay below the
// formula-(2) line (35/3 < 12) while pushing mean per-block demand past the
// default-replication clamp, and opens stay at zero so formula (1) cannot
// be the cause.
func TestJudgeRangedFormula3Boundary(t *testing.T) {
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
			f.create("/r3", 4, 3)
			for b := 0; b < tc.intenseBlocks; b++ {
				f.pread("/r3", b, 35)
			}
			ds := f.j.Evaluate()
			if got := byFormula(ds, "/r3", 1); len(got) != 0 {
				t.Fatalf("formula 1 fired on preads: %v", got)
			}
			if got := byFormula(ds, "/r3", 2); len(got) != 0 {
				t.Fatalf("formula 2 fired below its line: %v", got)
			}
			got := byFormula(ds, "/r3", 3)
			if tc.wantF3 != (len(got) == 1) {
				t.Fatalf("intense=%d: formula-3 decisions = %v, want present=%v",
					tc.intenseBlocks, got, tc.wantF3)
			}
		})
	}
}

// The intense-block line itself, end-to-end: 18 preads (N_b / r = M_m
// exactly) leave a block un-intense; 19 tip it. Two blocks are held well
// above the line and the boundary block decides whether the intense
// fraction is 2/4 (= ε, silent) or 3/4 (> ε, fires). The fourth block gets
// sub-line traffic so total demand clears the replication clamp without
// adding an intense block.
func TestJudgeRangedIntenseLineBoundary(t *testing.T) {
	cases := []struct {
		boundaryPreads int
		wantF3         bool
	}{
		{18, false}, // 18/3 = M_m exactly: not intense
		{19, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("preads=%d", tc.boundaryPreads), func(t *testing.T) {
			f := newJudgeFix(t, 18)
			f.create("/rm", 4, 3)
			f.pread("/rm", 0, 35)
			f.pread("/rm", 1, 35)
			f.pread("/rm", 2, tc.boundaryPreads)
			f.pread("/rm", 3, 18)
			ds := f.j.Evaluate()
			if got := byFormula(ds, "/rm", 2); len(got) != 0 {
				t.Fatalf("formula 2 fired below its line: %v", got)
			}
			got := byFormula(ds, "/rm", 3)
			if tc.wantF3 != (len(got) == 1) {
				t.Fatalf("boundary=%d preads: formula-3 decisions = %v, want present=%v",
					tc.boundaryPreads, got, tc.wantF3)
			}
		})
	}
}

// Preads keep a file warm: a file that would otherwise satisfy formula
// (6)'s cold rule (old, no opens, default replication) must not be encoded
// while it serves ranged reads, because the judge tracks pread liveness.
func TestJudgeRangedKeepsFileWarm(t *testing.T) {
	f := newJudgeFix(t, 18)
	f.create("/warm", 1, 2)
	f.create("/stale", 1, 2)
	f.e.RunUntil(3 * time.Hour) // both files now well past ColdAge
	f.pread("/warm", 0, 1)      // a single pread refreshes /warm only
	ds := f.j.Evaluate()
	if got := byFormula(ds, "/stale", 6); len(got) != 1 {
		t.Fatalf("untouched old file should encode: %v", ds)
	}
	if got := byFormula(ds, "/warm", 6); len(got) != 0 {
		t.Fatalf("pread-active file was classified cold: %v", got)
	}
}
