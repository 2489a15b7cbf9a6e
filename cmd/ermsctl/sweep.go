package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"erms"
	"erms/internal/sweep"
)

// runSweep is the `ermsctl sweep` subcommand: a seeds × thresholds grid of
// full erms.System deployments on the sweep engine. Each cell synthesizes
// its own trace, replays it as client reads, and reports what the judge
// did; rows come back in canonical grid order, byte-identical at any
// -parallel value. Timing goes to stderr so stdout stays byte-stable.
//
//	ermsctl sweep -seeds 3 -taum 12,8,4 -eps 0.5 -parallel 4
//	ermsctl sweep -seeds 5 -taum 8 -duration 2h -failfast
func runSweep(args []string) {
	fs := flag.NewFlagSet("ermsctl sweep", flag.ExitOnError)
	var (
		seeds    = fs.Int("seeds", 3, "number of workload seeds (1..N)")
		taums    = fs.String("taum", "12,8,6,4", "comma-separated τ_M values")
		epss     = fs.String("eps", "0.5", "comma-separated ε values")
		duration = fs.Duration("duration", 30*time.Minute, "trace length per cell")
		files    = fs.Int("files", 20, "file catalog size per cell")
		parallel = fs.Int("parallel", runtime.NumCPU(), "sweep workers (1 = serial; merged output is identical either way)")
		failfast = fs.Bool("failfast", false, "cancel the grid on the first cell error (default: collect all)")
		timing   = fs.Bool("timing", false, "print the per-cell timing table to stderr")
	)
	fs.Parse(args)

	var seedList []int64
	for s := int64(1); s <= int64(*seeds); s++ {
		seedList = append(seedList, s)
	}
	grid := sweep.Grid{
		Seeds: seedList,
		Axes: []sweep.Axis{
			{Name: "tau_M", Values: parseFloats(*taums)},
			{Name: "eps", Values: parseFloats(*epss)},
		},
	}
	tasks := grid.Tasks(func(ctx context.Context, p sweep.Point) (string, error) {
		return sweepCell(p, *duration, *files), nil
	})

	results, err := sweep.Run(context.Background(),
		sweep.Options{Parallel: *parallel, FailFast: *failfast}, tasks)
	fmt.Printf("%-28s %-9s %-9s %-9s %-9s %-10s %-10s %s\n",
		"cell", "decisions", "increases", "decreases", "encodes", "reads", "storageGB", "saved_nh")
	fmt.Print(sweep.Merged(results))
	if *timing {
		fmt.Fprintln(os.Stderr, sweep.TimingTable(results))
	}
	if err != nil {
		log.Fatal(err)
	}
}

// sweepCell runs one deployment: its own engine, cluster, judge, and
// workload — nothing shared with concurrent cells.
func sweepCell(p sweep.Point, duration time.Duration, files int) string {
	th := erms.DefaultThresholds()
	th.TauM = p.Values[0]
	th.Epsilon = p.Values[1]
	sys := erms.NewSystem(erms.Options{Thresholds: th})
	sys.RunUntil(startTrace(sys, synthetic(p.Seed, duration, files)))
	sys.Stop()

	st := sys.Manager().Stats()
	cm := sys.Metrics()
	label := fmt.Sprintf("seed=%d tau_M=%g eps=%g", p.Seed, p.Values[0], p.Values[1])
	return fmt.Sprintf("%-28s %-9d %-9d %-9d %-9d %-10d %-10.1f %.1f\n",
		label, st.Decisions, st.Increases, st.Decreases, st.Encodes,
		cm.ReadsCompleted, sys.StorageUsed()/erms.GB, sys.Energy().SavedNodeHours)
}

// parseFloats splits a comma-separated flag value into floats, dying on
// malformed input (these are static grid declarations).
func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			log.Fatalf("bad grid value %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		log.Fatalf("empty grid axis %q", s)
	}
	return out
}
