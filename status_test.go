package erms_test

import (
	"fmt"
	"testing"
	"time"

	"erms"
)

// TestStatus pins the one status model on every deployment shape the
// renderers meet. The byte-level rendering is pinned separately by the
// three status goldens (internal/server, cmd/ermsctl).
func TestStatus(t *testing.T) {
	cases := []struct {
		name     string
		opts     erms.Options
		failover int // shard to snapshot and fail over, or -1
	}{
		{"one shard", erms.Options{EnableJournal: true}, -1},
		{"four shards", erms.Options{EnableJournal: true, Shards: 4}, -1},
		{"failed-over shard", erms.Options{EnableJournal: true, Shards: 4, SafeMode: erms.SafeModeConfig{Enabled: true}}, 2},
		{"vanilla", erms.Options{DisableERMS: true}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := erms.NewSystem(tc.opts)
			defer sys.Stop()
			for i := 0; i < 12; i++ {
				if err := sys.CreateFile(fmt.Sprintf("/st/f%02d", i), 128*erms.MB); err != nil {
					t.Fatal(err)
				}
			}
			sys.RunFor(time.Minute)
			if tc.failover >= 0 {
				if err := sys.SnapshotShards(); err != nil {
					t.Fatal(err)
				}
				if err := sys.FailoverShard(tc.failover); err != nil {
					t.Fatal(err)
				}
			}
			st := sys.Status()

			if st.Mode != "simulation" || st.NowSeconds != 60 || st.PendingEvents != sys.Engine().Pending() {
				t.Errorf("mode %q at %vs with %d pending", st.Mode, st.NowSeconds, st.PendingEvents)
			}
			if st.Files != 12 || st.LiveBlocks != 24 || st.StorageUsedGB != sys.StorageUsed()/erms.GB {
				t.Errorf("namespace: %d files, %d blocks, %v GB", st.Files, st.LiveBlocks, st.StorageUsedGB)
			}
			if st.Availability != (erms.AvailabilityStatus{Blocks: 1, Nodes: 1}) {
				t.Errorf("availability: %+v", st.Availability)
			}
			if len(st.Shards) != sys.Shards() {
				t.Fatalf("%d rows for %d shards", len(st.Shards), sys.Shards())
			}
			files := 0
			for i, row := range st.Shards {
				sh := sys.Shard(i)
				wantEpoch, wantJournal := uint64(1), uint64(1)
				if i == tc.failover {
					wantEpoch, wantJournal = 2, 2
				}
				if !tc.opts.EnableJournal {
					wantJournal = 0
				}
				if row.Shard != i || row.Epoch != wantEpoch || row.JournalEpoch != wantJournal {
					t.Errorf("row %d: %+v, want epoch %d/%d", i, row, wantEpoch, wantJournal)
				}
				if row.Files != sh.HDFS().Files() || row.SafeMode != sh.HDFS().InSafeMode() {
					t.Errorf("row %d: %+v disagrees with the shard", i, row)
				}
				if (row.RepairQueues == nil) != tc.opts.DisableERMS {
					t.Errorf("row %d repair queues: %v", i, row.RepairQueues)
				}
				files += row.Files
			}
			if files != st.Files {
				t.Errorf("rows hold %d files, header %d", files, st.Files)
			}
			// The header is shard 0's namenode; its counters sum every shard's.
			head := st.Shards[0]
			if st.Epoch.Writer != head.Epoch || st.Epoch.Journal != head.JournalEpoch || st.Epoch.Fenced {
				t.Errorf("epoch block %+v, row 0 %+v", st.Epoch, head)
			}
			if st.SafeMode.On != head.SafeMode || st.SafeMode.Entries != sys.Metrics().SafeModeEntries {
				t.Errorf("safe-mode block %+v", st.SafeMode)
			}
			if tc.failover >= 0 && (st.SafeMode.Entries != 1 || !st.Shards[tc.failover].SafeMode || st.SafeMode.On) {
				t.Errorf("restored shard %d should sit in safe mode alone: %+v, rows %+v", tc.failover, st.SafeMode, st.Shards)
			}
			if tc.opts.DisableERMS {
				if st.Repair != nil {
					t.Errorf("vanilla system reports a repair pipeline: %+v", st.Repair)
				}
				return
			}
			if st.Repair == nil || len(st.Repair.Queues) != 4 || st.Repair.MaxStreams != 36 || st.Repair.MaxStreamsPerNode != 2 {
				t.Errorf("repair block: %+v", st.Repair)
			}
		})
	}
}
