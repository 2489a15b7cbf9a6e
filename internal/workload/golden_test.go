package workload

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"erms/internal/topology"
)

// traceDigest is the FNV-64a of the trace's WriteJSON bytes.
func traceDigest(t *testing.T, tr *Trace) string {
	t.Helper()
	h := fnv.New64a()
	if err := tr.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// swimLargeShape is the catalogue and arrival shape of the swim-large
// benchmark workload: 1,000 files of 256–512 MB over 8 h, a job every
// 0.5 s on average, 54 clients.
func swimLargeShape(seed int64) Config {
	return Config{
		Seed: seed, Duration: 8 * time.Hour, NumFiles: 1000, ZipfSkew: 0.8,
		MeanInterarrival: 500 * time.Millisecond,
		MinFileSize:      256 * topology.MB, MaxFileSize: 512 * topology.MB, Clients: 54,
	}
}

// TestSynthesizeGoldenDigests pins every generator's output byte for byte.
// The digests were captured before Synthesize's job loop was split into a
// serial draw pass and parallel weighted picks, and are never regenerated:
// a trace that changes is a bug, not a new golden.
func TestSynthesizeGoldenDigests(t *testing.T) {
	cases := []struct {
		name  string
		trace func() *Trace
		want  string
	}{
		{"swim-large", func() *Trace { return Synthesize(swimLargeShape(1)) }, "86288c9c5eee17e3"},
		{"diurnal", func() *Trace {
			return Synthesize(Config{Seed: 2, Duration: 6 * time.Hour, NumFiles: 60,
				MeanInterarrival: 10 * time.Second, DiurnalAmplitude: 0.8})
		}, "91892114e1f92782"},
		{"one-file", func() *Trace {
			return Synthesize(Config{Seed: 3, Duration: time.Hour, NumFiles: 1, MeanInterarrival: 30 * time.Second})
		}, "e12f7e03ccb03720"},
		{"two-files", func() *Trace {
			return Synthesize(Config{Seed: 3, Duration: time.Hour, NumFiles: 2, MeanInterarrival: 30 * time.Second})
		}, "b2eaa5b7939c28f3"},
		// A 1 s half-life drives every weight to 0 once the newest file is
		// about 18 minutes old, so late jobs hit the zero-total skip.
		{"underflow", func() *Trace {
			return Synthesize(Config{Seed: 4, Duration: 10 * time.Hour, NumFiles: 30,
				MeanInterarrival: 20 * time.Second, PopularityHalfLife: time.Second})
		}, "dcd78747bc7ed52c"},
		{"no-jobs", func() *Trace {
			return Synthesize(Config{Seed: 5, Duration: time.Second, NumFiles: 4, MeanInterarrival: time.Hour})
		}, "16b73c5c64f3bcf3"},
		{"tenant", func() *Trace { return SynthesizeMultiTenant(TenantConfig{Seed: 6, Duration: 2 * time.Hour}) }, "9b1b03d55171a761"},
		{"partial", func() *Trace { return SynthesizePartialRead(PartialConfig{Seed: 7, Duration: 2 * time.Hour}) }, "305fda07f3242fc6"},
		{"flashcrowd", func() *Trace { return SynthesizeFlashCrowd(FlashConfig{Seed: 8, Duration: 2 * time.Hour}) }, "50ec7c53381feedc"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := c.trace()
			if c.name == "no-jobs" && tr.Jobs != nil {
				t.Fatalf("no-jobs config synthesized %d jobs", len(tr.Jobs))
			}
			if got := traceDigest(t, tr); got != c.want {
				t.Errorf("digest %s, want %s (%d files, %d jobs)", got, c.want, len(tr.Files), len(tr.Jobs))
			}
		})
	}
}
