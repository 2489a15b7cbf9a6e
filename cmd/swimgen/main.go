// Command swimgen synthesizes SWIM-style heavy-tailed workload traces
// (the statistical shape of the Facebook production trace the ERMS paper
// replays) and inspects existing traces.
//
// Usage:
//
//	swimgen -duration 2h -files 40 -seed 7 > trace.json
//	swimgen -inspect trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"erms/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swimgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command: parse args, generate or inspect, write to
// stdout. Kept separate from main so tests can drive it in-process and
// assert that equal flags produce byte-identical output.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("swimgen", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "random seed")
		duration = fs.Duration("duration", 2*time.Hour, "trace length")
		files    = fs.Int("files", 40, "file catalog size")
		interarr = fs.Duration("interarrival", 20*time.Second, "mean job inter-arrival")
		halfLife = fs.Duration("halflife", 90*time.Minute, "popularity half-life")
		format   = fs.String("format", "json", "output format: json or csv")
		inspect  = fs.String("inspect", "", "summarize an existing trace file (.json or .csv) instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspect != "" {
		tr, err := workload.ReadFile(*inspect)
		if err != nil {
			return err
		}
		summarize(tr, stdout)
		return nil
	}

	// The library reads a zero or negative field as "use the default";
	// on the command line it is a mistake, and so is a format we cannot
	// write, so both are refused before any synthesis.
	switch {
	case *files <= 0:
		return fmt.Errorf("-files must be positive, got %d", *files)
	case *duration <= 0:
		return fmt.Errorf("-duration must be positive, got %v", *duration)
	case *interarr <= 0:
		return fmt.Errorf("-interarrival must be positive, got %v", *interarr)
	case *halfLife <= 0:
		return fmt.Errorf("-halflife must be positive, got %v", *halfLife)
	case *format != "json" && *format != "csv":
		return fmt.Errorf("unknown format %q (want json or csv)", *format)
	}
	tr := workload.Synthesize(workload.Config{
		Seed:               *seed,
		Duration:           *duration,
		NumFiles:           *files,
		MeanInterarrival:   *interarr,
		PopularityHalfLife: *halfLife,
	})
	if *format == "csv" {
		return tr.WriteCSV(stdout)
	}
	return tr.WriteJSON(stdout)
}

func summarize(tr *workload.Trace, w io.Writer) {
	fmt.Fprintf(w, "seed      %d\n", tr.Seed)
	fmt.Fprintf(w, "duration  %v\n", tr.Duration)
	fmt.Fprintf(w, "files     %d\n", len(tr.Files))
	fmt.Fprintf(w, "jobs      %d\n", len(tr.Jobs))
	fmt.Fprintf(w, "skew      %.3f (Gini over per-file access counts)\n", tr.GiniSkew())
	fmt.Fprintln(w, "\ntop files by accesses:")
	counts := tr.AccessCounts()
	for i, c := range counts {
		if i == 10 {
			break
		}
		fmt.Fprintf(w, "  %-16s %d\n", c.Path, c.Count)
	}
}
