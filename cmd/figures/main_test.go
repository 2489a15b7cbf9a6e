package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"erms/internal/sweep"
)

// names extracts the task names from a selection.
func names(tasks []sweep.Task) []string {
	var out []string
	for _, t := range tasks {
		out = append(out, t.Name)
	}
	return out
}

func TestBuildTasksSelection(t *testing.T) {
	opts := figOpts{seed: 1, parallel: 1, cores: 1}

	all, notes := buildTasks("all", opts)
	got := strings.Join(names(all), " ")
	for _, want := range []string{"3", "4", "5", "6", "7", "8", "9",
		"ablation:placement", "ablation:idle", "ablation:thresholds",
		"ablation:speculation",
		"reliability", "failover", "durability", "sweep", "scenarios", "trace"} {
		if !strings.Contains(" "+got+" ", " "+want+" ") {
			t.Errorf("-fig all missing task %q (got %s)", want, got)
		}
	}
	if strings.Contains(got, "scale") {
		t.Errorf("single-core -fig all includes scale: %s", got)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "run with -fig scale") {
		t.Errorf("-fig all notes = %v, want the scale exclusion note", notes)
	}

	// On a multi-core machine the checkpoint cache makes scale cheap
	// enough to ride along with everything else — no exclusion note.
	multi, notes := buildTasks("all", figOpts{seed: 1, parallel: 4, cores: 8})
	if !strings.Contains(strings.Join(names(multi), " "), "scale") {
		t.Errorf("multi-core -fig all missing scale: %s", strings.Join(names(multi), " "))
	}
	if len(notes) != 0 {
		t.Errorf("multi-core -fig all notes = %v, want none", notes)
	}

	one, notes := buildTasks("3a", opts)
	if len(one) != 1 || one[0].Name != "3" || len(notes) != 0 {
		t.Errorf("-fig 3a = %v notes %v, want the single fig-3 task", names(one), notes)
	}
	scale, notes := buildTasks("scale", opts)
	if len(scale) != 1 || scale[0].Name != "scale" || len(notes) != 0 {
		t.Errorf("-fig scale = %v notes %v", names(scale), notes)
	}
	if both, _ := buildTasks("3", opts); len(both) != 1 || both[0].Name != "3" {
		t.Errorf("-fig 3 = %v, want the fig-3 task (3a + 3b)", names(both))
	}
	// Only "3" is a prefix: one letter of a longer name selects nothing.
	for _, fig := range []string{"nope", "d", "s", "t"} {
		if none, _ := buildTasks(fig, opts); len(none) != 0 {
			t.Errorf("-fig %s = %v, want none", fig, names(none))
		}
	}
}

// TestFigureTaskRuns executes one cheap figure end to end through the
// sweep engine, twice, asserting the byte-stability main relies on.
func TestFigureTaskRuns(t *testing.T) {
	var outs []string
	for range 2 {
		tasks, _ := buildTasks("7", figOpts{seed: 1, parallel: 1})
		results, err := sweep.Run(context.Background(), sweep.Options{Parallel: 2}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, sweep.Merged(results))
	}
	if outs[0] != outs[1] {
		t.Error("figure 7 output not deterministic across runs")
	}
	if !strings.Contains(outs[0], "whole") {
		t.Errorf("figure 7 table missing expected column:\n%s", outs[0])
	}
}

func TestRuntimeTableMarkdown(t *testing.T) {
	got := runtimeTableMarkdown("7", figOpts{seed: 1, parallel: 2})
	for _, want := range []string{"| figure | serial_s | parallel_s |", "| 7 |",
		"**total wall**", "byte-identical across worker counts: true"} {
		if !strings.Contains(got, want) {
			t.Errorf("runtime table missing %q:\n%s", want, got)
		}
	}
}

// TestQuickScaleGolden holds every figure but scale to the bytes it
// printed before the evaluation harness was trimmed:
// testdata/quick.golden is `figures -fig all -seed 1 -parallel 1` on one
// core (so scale is skipped), recorded at b06bcd0, and there is no -update
// path. Differences since: the placement ablation's last column reports
// replica skew where it reported balancer traffic; the durability table
// was re-recorded at 4621384, when its standby pool moved to the tail of
// each rack (hdfs.SpreadStandby); the reliability table was re-recorded
// at fd0dea4, when it became an exact count over every dead set instead
// of a Monte Carlo estimate; and the failover table was
// re-recorded at e55bf91, when it came to measure System.FailoverShard.
func TestQuickScaleGolden(t *testing.T) {
	tasks, _ := buildTasks("all", figOpts{seed: 1, parallel: 1, cores: 1})
	results, err := sweep.Run(context.Background(), sweep.Options{Parallel: 1}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := sweep.Merged(results)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, golden differs (%d vs %d lines)", i+1, gl[i], len(gl), len(wl))
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
}
