package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"erms"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestStatusReportGolden pins the `ermsctl status` output byte-for-byte
// on a deterministic scenario, in both shapes: the single-namenode header
// and the federated per-shard table (where a failover makes shard 1's
// bumped epoch visible). Regenerate with `go test ./cmd/ermsctl -update`.
func TestStatusReportGolden(t *testing.T) {
	cases := []struct {
		name   string
		shards int
	}{
		{"status_single", 0},
		{"status_federated", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := erms.NewSystem(erms.Options{
				EnableJournal: true,
				Shards:        tc.shards,
				SafeMode:      erms.SafeModeConfig{Enabled: true},
			})
			for i := 0; i < 9; i++ {
				p := fmt.Sprintf("/golden/f%02d", i)
				if err := sys.CreateFile(p, float64(64+8*i)*erms.MB); err != nil {
					t.Fatal(err)
				}
			}
			for wave := 0; wave < 6; wave++ {
				at := time.Duration(wave) * time.Minute
				sys.Engine().Schedule(at, func() {
					for c := 0; c < 8; c++ {
						sys.Read(c, "/golden/f03", nil)
					}
				})
			}
			sys.RunFor(10 * time.Minute)
			if tc.shards > 1 {
				if err := sys.SnapshotShards(); err != nil {
					t.Fatal(err)
				}
				if err := sys.FailoverShard(1); err != nil {
					t.Fatal(err)
				}
			}
			sys.RunFor(5 * time.Minute)
			got := statusReport(sys.Status())

			golden := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("status output drifted from %s:\n--- got ---\n%s--- want ---\n%s(run with -update to regenerate)",
					golden, got, want)
			}
		})
	}
}

// TestStatusReportVanilla: without ERMS there is no repair pipeline and no
// journal; the report drops the repair block instead of dereferencing a
// nil manager.
func TestStatusReportVanilla(t *testing.T) {
	got := statusReport(erms.NewSystem(erms.Options{DisableERMS: true, Shards: 2}).Status())
	if strings.Contains(got, "repair") || !strings.Contains(got, "shard 1: epoch 1/0 files=0    safe=off queues\n") {
		t.Errorf("vanilla status:\n%s", got)
	}
}
