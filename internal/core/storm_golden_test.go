package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// updateStorms rewrites the pinned storm outcomes from this build:
//
//	go test ./internal/core/ -run 'TestChaosSoak|TestChaosDeterminism' -update
//
// with ERMS_SOAK=1 to record soak seeds 2 and 3 as well. Lines of runs not
// made are kept.
var updateStorms = flag.Bool("update", false, "rewrite testdata/chaos_storms.golden from this build")

const stormGolden = "testdata/chaos_storms.golden"

// pinned renders everything a storm run decides as one golden line: the
// namenode's state digest, the chaos report, the cluster counters, the
// manager's stats and an FNV-64a hash of the Condor user log.
func (o chaosOutcome) pinned() string {
	return fmt.Sprintf("digest=%016x applied=%d skipped=%d perkind=%v metrics=%+v stats=%+v condorlog=%016x",
		o.digest, o.report.Applied, o.report.Skipped, o.report.PerKind, o.metrics, o.stats, fnv64(o.condorLog))
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// pinStorm compares line with the golden's line under key, or with -update
// records it there.
func pinStorm(t *testing.T, key, line string) {
	t.Helper()
	data, err := os.ReadFile(stormGolden)
	if err != nil && !(*updateStorms && os.IsNotExist(err)) {
		t.Fatalf("read %s: %v", stormGolden, err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(data) == 0 {
		lines = nil
	}
	prefix := key + " "
	for i, l := range lines {
		if !strings.HasPrefix(l, prefix) {
			continue
		}
		if *updateStorms {
			lines[i] = prefix + line
			writeStormGolden(t, lines)
		} else if got := prefix + line; got != l {
			t.Errorf("storm %q differs from %s:\n got  %s\n want %s", key, stormGolden, got, l)
		}
		return
	}
	if !*updateStorms {
		t.Fatalf("%s has no line for %q; rerun with -update", stormGolden, key)
	}
	writeStormGolden(t, append(lines, prefix+line))
}

func writeStormGolden(t *testing.T, lines []string) {
	t.Helper()
	if err := os.WriteFile(stormGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
