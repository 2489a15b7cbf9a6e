package erms_test

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"erms"
)

var updateMetricNames = flag.Bool("update", false, "rewrite testdata/metric_names.golden")

// metricToken is a metric name as the docs write it; one followed by `*`
// (`hdfs_*`, `erms_repairs_*_total`) is a prefix.
var metricToken = regexp.MustCompile(`\b(?:hdfs|erms|cep|condor)_[a-z0-9_]+\b`)

// TestMetricNames pins the set of names a default journaled System
// registers — what /metrics exports — in testdata/metric_names.golden
// (-update rewrites it), and fails on any metric name the operator docs
// mention that is not registered, so a renamed metric cannot leave the
// docs pointing at nothing.
func TestMetricNames(t *testing.T) {
	names := erms.NewSystem(erms.Options{EnableJournal: true}).Registry().Names()
	const golden = "testdata/metric_names.golden"
	got := strings.Join(names, "\n") + "\n"
	if *updateMetricNames {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("registered metric names differ from %s (rerun with -update after a deliberate change):\n%s", golden, got)
	}

	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range metricToken.FindAllIndex(text, -1) {
			tok := string(text[at[0]:at[1]])
			known := slices.Contains(names, tok)
			if at[1] < len(text) && text[at[1]] == '*' {
				known = slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, tok) })
			}
			if !known {
				t.Errorf("%s names metric %s, which is not registered", doc, tok)
			}
		}
	}
}
