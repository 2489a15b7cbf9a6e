package erms_test

import (
	"os"
	"testing"
	"time"

	"erms/internal/experiments"
)

// TestFig3aGolden: the committed fig3a output, generated before the Clock
// seam landed and unchanged since, must still reproduce exactly now that
// every Figure 3 deployment is built through erms.NewSystem. It lives in
// package erms_test because the experiments import the facade.
func TestFig3aGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3a render takes a few seconds")
	}
	want, err := os.ReadFile("testdata/fig3a_quick.golden")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	rows := experiments.Fig3(experiments.Fig3Config{
		Seed: 1, Duration: 45 * time.Minute, Files: 16,
	})
	if got := experiments.Fig3Table(rows).String() + "\n"; got != string(want) {
		t.Fatalf("fig3a output changed from the pre-seam golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
