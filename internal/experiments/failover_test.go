package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestFailoverDemo runs the failover study at reduced scale and checks
// the property the figure exists to demonstrate: every FailoverShard
// promotes a namenode whose state matches the deposed primary bit for
// bit, with zero recoverable blocks lost, and the replayed tail grows with
// crash time.
func TestFailoverDemo(t *testing.T) {
	cfg := FailoverConfig{
		Seed:     7,
		Duration: 24 * time.Minute,
		Crashes:  3,
	}
	rows := FailoverDemo(cfg)
	if len(rows) != cfg.Crashes {
		t.Fatalf("got %d rows, want %d", len(rows), cfg.Crashes)
	}
	for i, r := range rows {
		if !r.DigestMatch {
			t.Errorf("crash %d at %.1fm: promoted digest != deposed primary's", i, r.AtMin)
		}
		if !r.Consistent {
			t.Errorf("crash %d at %.1fm: promoted namenode inconsistent", i, r.AtMin)
		}
		if r.Lost != 0 {
			t.Errorf("crash %d at %.1fm: lost %d recoverable blocks", i, r.AtMin, r.Lost)
		}
		if r.CheckpointKB <= 0 || r.Files <= 0 || r.Blocks <= 0 {
			t.Errorf("crash %d: empty row %+v", i, r)
		}
		if i > 0 && r.TailEntries < rows[i-1].TailEntries {
			t.Errorf("tail shrank between crashes: %d then %d (single baseline should grow monotonically)",
				rows[i-1].TailEntries, r.TailEntries)
		}
	}
	// The later crashes must actually replay a longer journal, or the
	// recover-time-vs-tail-length figure is measuring nothing.
	if last := rows[len(rows)-1]; last.TailEntries <= rows[0].TailEntries {
		t.Errorf("journal tail did not grow: first crash %d entries, last %d",
			rows[0].TailEntries, last.TailEntries)
	}

	det := FailoverTable(rows).String()
	for _, want := range []string{"tail_entries", "digest_match", "true"} {
		if !strings.Contains(det, want) {
			t.Errorf("failover table missing %q:\n%s", want, det)
		}
	}
	if strings.Contains(det, "restore_ms") {
		t.Error("wall-clock column leaked into the deterministic table")
	}
	timing := FailoverTimingTable(rows).String()
	if !strings.Contains(timing, "restore_ms") {
		t.Errorf("timing table missing restore_ms:\n%s", timing)
	}

	// Byte stability: the deterministic table must not depend on the host.
	again := FailoverTable(FailoverDemo(cfg)).String()
	if again != det {
		t.Errorf("failover table not deterministic across runs:\n%s\nvs\n%s", det, again)
	}
}
