package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateDeterministic: the same seed and flags must produce
// byte-identical output, run twice in the same process, for both formats.
// This is the golden gate for trace generation — any hidden global state
// (map iteration, shared rand) would show up here.
func TestGenerateDeterministic(t *testing.T) {
	cases := [][]string{
		{"-seed", "7", "-duration", "1h", "-files", "24", "-format", "json"},
		{"-seed", "7", "-duration", "1h", "-files", "24", "-format", "csv"},
		{"-seed", "3", "-duration", "30m", "-files", "10", "-interarrival", "10s", "-halflife", "45m", "-format", "json"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var a, b bytes.Buffer
			if err := run(args, &a); err != nil {
				t.Fatalf("first run: %v", err)
			}
			if err := run(args, &b); err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.Len() == 0 {
				t.Fatal("no output produced")
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("same seed+flags produced different output (%d vs %d bytes)", a.Len(), b.Len())
			}
		})
	}
}

// TestInspectRoundTrip: generating to a file and inspecting it must work
// for both formats, and report the generated catalog size.
func TestInspectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"json", "csv"} {
		path := filepath.Join(dir, "trace."+format)
		var out bytes.Buffer
		if err := run([]string{"-seed", "5", "-duration", "1h", "-files", "12", "-format", format}, &out); err != nil {
			t.Fatalf("generate %s: %v", format, err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var sum bytes.Buffer
		if err := run([]string{"-inspect", path}, &sum); err != nil {
			t.Fatalf("inspect %s: %v", format, err)
		}
		if !strings.Contains(sum.String(), "files     12") {
			t.Fatalf("inspect of %s did not report the 12-file catalog:\n%s", format, sum.String())
		}
	}
}

func TestUnknownFormat(t *testing.T) {
	if err := run([]string{"-format", "xml"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestRejectsBadFlags: a non-positive size or time, or an unknown format,
// is an error that names the flag and writes nothing — never a trace
// synthesized from the library's defaults.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-files", "0"}, "-files"},
		{[]string{"-files", "-3"}, "-files"},
		{[]string{"-duration", "0s"}, "-duration"},
		{[]string{"-duration", "-5m"}, "-duration"},
		{[]string{"-interarrival", "0s"}, "-interarrival"},
		{[]string{"-interarrival", "-1s"}, "-interarrival"},
		{[]string{"-halflife", "0s"}, "-halflife"},
		{[]string{"-halflife", "-90m"}, "-halflife"},
		{[]string{"-format", "xml"}, "format"},
		{[]string{"-format", ""}, "format"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("accepted; wrote %d bytes", out.Len())
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("error %q does not name %s", err, tc.flag)
			}
			if out.Len() != 0 {
				t.Errorf("wrote %d bytes before refusing", out.Len())
			}
		})
	}
}
