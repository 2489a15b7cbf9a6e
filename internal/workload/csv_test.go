package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	tr := Synthesize(small())
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Files) != len(tr.Files) || len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("lost records: %d/%d files, %d/%d jobs",
			len(back.Files), len(tr.Files), len(back.Jobs), len(tr.Jobs))
	}
	for i := range tr.Files {
		a, b := tr.Files[i], back.Files[i]
		if a.Path != b.Path || a.Size != b.Size || a.Rank != b.Rank {
			t.Fatalf("file %d: %+v != %+v", i, a, b)
		}
		if d := a.CreateAt - b.CreateAt; d > time.Millisecond || d < -time.Millisecond {
			t.Fatalf("file %d create time drifted %v", i, d)
		}
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], back.Jobs[i]
		if a.Name != b.Name || a.File != b.File || a.Client != b.Client || a.Compute != b.Compute {
			t.Fatalf("job %d: %+v != %+v", i, a, b)
		}
		if d := a.Submit - b.Submit; d > time.Millisecond || d < -time.Millisecond {
			t.Fatalf("job %d submit drifted %v", i, d)
		}
	}
	if back.Duration < tr.Jobs[len(tr.Jobs)-1].Submit {
		t.Fatal("inferred duration before last job")
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"path,size\n/x,3\n",                   // data before section marker
		"FILES\nheader\n/x,notanumber,0,1\n",  // bad number
		"JOBS\nheader\nj,1.0,/x,zero,8\n",     // bad client
		"FILES\npath,size_mb,create_at_s\n\n", // empty trace (header only)
		// Negative times: replay would schedule them before its anchor.
		"FILES\npath,size_mb,create_at_s,rank\n/x,64,-1,0\n",
		"FILES\npath,size_mb,create_at_s,rank\n/x,64,0,0\nJOBS\nname,submit_s,file,client,compute_ms_per_mb\nj,-1,/x,0,8\n",
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Fatalf("accepted %q", src)
		}
	}
}

func TestCSVSectionsReadableByHumans(t *testing.T) {
	tr := Synthesize(Config{Seed: 1, Duration: 10 * time.Minute, NumFiles: 3,
		MeanInterarrival: time.Minute})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "FILES\n") || !strings.Contains(s, "\nJOBS\n") {
		t.Fatalf("sections missing:\n%s", s)
	}
	if !strings.Contains(s, "path,size_mb,create_at_s,rank") {
		t.Fatal("files header missing")
	}
}

func TestCSVReplayable(t *testing.T) {
	tr := Synthesize(Config{Seed: 4, Duration: 15 * time.Minute, NumFiles: 4,
		MeanInterarrival: time.Minute, MaxFileSize: 128 * 1 << 20})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The re-read trace must replay cleanly.
	if back.GiniSkew() != tr.GiniSkew() {
		t.Fatal("access statistics changed through CSV")
	}
}
