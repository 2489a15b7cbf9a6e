package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"erms"
	"erms/internal/core"
)

// TestFig3aCondorUserLogGolden pins the Condor user log of the fig3a
// golden run's FIFO / ERMS τ_M=4 cell (the most replication jobs): every
// submit, match, execute and terminate line, with the machine each job was
// matched to. Matchmaking ranks machines by the FreeGB their ads carry, so
// an ad that went stale — or fresh at a different instant — moves a job and
// changes the digest. Recorded from the manager that rebuilt every ad on
// every refresh.
func TestFig3aCondorUserLogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the fig3a quick trace")
	}
	trace := synthesizeFig3Trace(Fig3Config{Seed: 1, Duration: 45 * time.Minute, Files: 16})
	sys := erms.NewSystem(erms.Options{
		StandbyNodes: -1,
		Thresholds:   core.Thresholds{TauM: 4, Window: 5 * time.Minute, ColdAge: 24 * time.Hour},
		JudgePeriod:  time.Minute,
	})
	replayJobs(sys, trace)
	log := sys.Manager().Scheduler().Log()
	h := fnv.New64a()
	for _, ev := range log {
		fmt.Fprintln(h, ev.String())
	}
	const wantEvents, wantDigest = 360, uint64(0x416946bd508b1fe8)
	if len(log) != wantEvents || h.Sum64() != wantDigest {
		t.Fatalf("user log: %d events, digest %#x; golden %d events, digest %#x",
			len(log), h.Sum64(), wantEvents, wantDigest)
	}
}
