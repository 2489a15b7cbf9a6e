package erms_test

import (
	"fmt"
	"testing"
	"time"

	"erms"
)

// raiseProbe drives four 640 MB files, each read by ten clients every
// minute for 30 minutes, so the judge raises all four above the default
// at 5m0s (/hot0 to r=10). fault, when set, runs at 5m10s while the raise
// is copying. Every second it checks that no data block of a plain file
// holds more live replicas than its file's target, and at the end that
// every block holds exactly that target. It returns the repair jobs run.
func raiseProbe(t *testing.T, opts erms.Options, fault func(*erms.System)) int {
	t.Helper()
	sys := erms.NewSystem(opts)
	e := sys.Engine()
	paths := []string{"/hot0", "/hot1", "/hot2", "/hot3"}
	for _, p := range paths {
		if err := sys.CreateFile(p, 640*erms.MB); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < 30; m++ {
		e.At(time.Duration(m)*time.Minute, func() {
			for _, p := range paths {
				for client := 0; client < 10; client++ {
					sys.Read(client, p, nil)
				}
			}
		})
	}
	if fault != nil {
		e.At(5*time.Minute+10*time.Second, func() { fault(sys) })
	}
	c := sys.HDFS()
	over := func() string {
		for _, p := range paths {
			f := c.File(p)
			if f.Encoded {
				continue
			}
			for _, bid := range f.Blocks {
				if n := len(c.Replicas(bid)); n > f.TargetRepl {
					return fmt.Sprintf("%s block %d holds %d live replicas, target %d", p, bid, n, f.TargetRepl)
				}
			}
		}
		return ""
	}
	for s := 1; s <= 30*60; s++ {
		sys.RunUntil(time.Duration(s) * time.Second)
		if msg := over(); msg != "" {
			t.Fatalf("at %v: %s", sys.Now(), msg)
		}
	}
	for _, p := range paths {
		f := c.File(p)
		if f.TargetRepl <= 3 {
			t.Fatalf("%s target %d: the raise never happened", p, f.TargetRepl)
		}
		for _, bid := range f.Blocks {
			if n := len(c.Replicas(bid)); n != f.TargetRepl {
				t.Errorf("%s block %d ends at %d live replicas, target %d", p, bid, n, f.TargetRepl)
			}
		}
	}
	return sys.Manager().Stats().Repairs
}

// TestCrashDuringRaiseEndsAtTarget crashes datanode 1 while the raise is
// copying. Its death notification sweeps for repairs while every raised
// block is short of its target by exactly the copies in flight: the sweep
// must leave those blocks to the raise instead of filling them again.
func TestCrashDuringRaiseEndsAtTarget(t *testing.T) {
	if jobs := raiseProbe(t, erms.Options{}, func(sys *erms.System) { sys.KillNode(1) }); jobs != 0 {
		t.Errorf("%d repair jobs ran for blocks the crash did not touch, want 0", jobs)
	}
}

// TestCrashOfCopyTargetDuringRaise crashes the datanode receiving the most
// raise copies. Those copies stop counting as it dies, so the sweep its
// death triggers refills their blocks, and no block passes its target
// when the raise's own retry copies land too.
func TestCrashOfCopyTargetDuringRaise(t *testing.T) {
	jobs := raiseProbe(t, erms.Options{}, func(sys *erms.System) {
		victim, most := -1, 0
		for _, d := range sys.HDFS().Datanodes() {
			if n := d.PendingAdds(); n > most {
				victim, most = int(d.ID), n
			}
		}
		if victim < 0 {
			t.Fatal("no raise copy in flight at 5m10s")
		}
		sys.KillNode(victim)
	})
	if jobs == 0 {
		t.Error("no repair job refilled the blocks whose copies died with their target")
	}
}

// TestFastJudgeDoesNotDoubleFill runs the same raise with no fault and a
// one-second judge period, so each pass's repair sweep meets blocks whose
// raise copies are still in flight. Those copies already fill the gap:
// no repair job runs and no block passes its target.
func TestFastJudgeDoesNotDoubleFill(t *testing.T) {
	if jobs := raiseProbe(t, erms.Options{JudgePeriod: time.Second}, nil); jobs != 0 {
		t.Errorf("%d repair jobs ran with no fault, want 0", jobs)
	}
}
