package invariant_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// updateStorms rewrites the pinned degraded-storm outcomes from this build:
//
//	go test ./internal/invariant/ -run TestDegradedStormSuite -update
//
// With -storm-seed only that seed's line is rewritten.
var updateStorms = flag.Bool("update", false, "rewrite testdata/degraded_storms.golden from this build")

const degradedGolden = "testdata/degraded_storms.golden"

// pinDegraded compares a degraded-storm run's line (state digest, chaos
// report, cluster metrics, manager stats, Condor user log hash) with the
// golden's line for its seed, or with -update records it there. It returns
// what went wrong, or "".
func pinDegraded(seed int64, line string) string {
	data, err := os.ReadFile(degradedGolden)
	if err != nil && !(*updateStorms && os.IsNotExist(err)) {
		return err.Error()
	}
	var lines []string
	if len(data) > 0 {
		lines = strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	}
	prefix := fmt.Sprintf("seed=%d ", seed)
	found := false
	for i, l := range lines {
		if !strings.HasPrefix(l, prefix) {
			continue
		}
		found = true
		if *updateStorms {
			lines[i] = prefix + line
		} else if prefix+line != l {
			return fmt.Sprintf("outcome differs from %s:\n got  %s\n want %s", degradedGolden, prefix+line, l)
		}
	}
	if !*updateStorms {
		if !found {
			return fmt.Sprintf("%s has no line for seed %d; rerun with -update", degradedGolden, seed)
		}
		return ""
	}
	if !found {
		lines = append(lines, prefix+line)
	}
	if err := os.WriteFile(degradedGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		return err.Error()
	}
	return ""
}
