// Benchmarks regenerating every figure of the ERMS paper's evaluation
// (the paper has no numbered tables; Figures 3–9 are the whole study),
// plus the DESIGN.md ablations. Each benchmark runs the corresponding
// experiment harness at quick scale and reports the figure's headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both regenerates the study and tracks the simulator's own cost.
// EXPERIMENTS.md records the paper-vs-measured comparison.
package erms_test

import (
	"testing"
	"time"

	"erms/internal/experiments"
)

func BenchmarkFig3ReadingPerformance(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig3(experiments.Fig3Config{
			Seed: 1, Duration: 45 * time.Minute, Files: 16, TauMs: []float64{4},
		})
	}
	var vanTP, ermsTP float64
	for _, r := range rows {
		if r.Scheduler != "FIFO" {
			continue
		}
		if r.System == "vanilla" {
			vanTP = r.Throughput
		} else {
			ermsTP = r.Throughput
		}
	}
	b.ReportMetric(vanTP, "vanillaMBps")
	b.ReportMetric(ermsTP, "ermsMBps")
	b.ReportMetric((ermsTP/vanTP-1)*100, "gain%")
}

func BenchmarkFig3bDataLocality(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig3(experiments.Fig3Config{
			Seed: 1, Duration: 45 * time.Minute, Files: 16, TauMs: []float64{4},
		})
	}
	var vanLoc, ermsLoc float64
	for _, r := range rows {
		if r.Scheduler != "FIFO" {
			continue
		}
		if r.System == "vanilla" {
			vanLoc = r.Locality
		} else {
			ermsLoc = r.Locality
		}
	}
	b.ReportMetric(vanLoc, "vanillaLocality")
	b.ReportMetric(ermsLoc, "ermsLocality")
}

func BenchmarkFig4AccessCDF(b *testing.B) {
	var rows []experiments.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig4(1, 2*time.Hour)
	}
	b.ReportMetric(float64(len(rows)), "points")
	b.ReportMetric(rows[len(rows)/2].CDF, "cdfAtMedianTime")
}

func BenchmarkFig5StorageUtilization(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5(experiments.Fig5Config{
			Seed: 3, Duration: 3 * time.Hour, Files: 16,
		})
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.VanillaGB, "finalVanillaGB")
	b.ReportMetric(last.ERMSGB, "finalErmsGB")
	b.ReportMetric(last.VanillaGB/last.ERMSGB, "storageRatio")
}

func BenchmarkFig6TestDFSIO(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig6(experiments.Fig6Config{
			FileSize:     512 * experiments.MB,
			Replications: []int{1, 3, 6},
			Threads:      []int{7, 21, 35},
		})
	}
	get := func(threads, repl int) float64 {
		for _, r := range rows {
			if r.Threads == threads && r.Replication == repl {
				return r.AvgExecSec
			}
		}
		return 0
	}
	b.ReportMetric(get(35, 1), "t35r1_s")
	b.ReportMetric(get(35, 6), "t35r6_s")
	b.ReportMetric(get(35, 1)/get(35, 6), "speedupR6overR1")
}

func BenchmarkFig7IncreaseStrategies(b *testing.B) {
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig7(experiments.Fig7Config{
			Sizes: []float64{64 * experiments.MB, 1 * experiments.GB},
		})
	}
	big := rows[len(rows)-1]
	b.ReportMetric(big.WholeSec, "whole1GB_s")
	b.ReportMetric(big.ByOneSec, "oneByOne1GB_s")
	b.ReportMetric(big.ByOneSec/big.WholeSec, "wholeAdvantage")
}

func BenchmarkFig8MaxConcurrentAccess(b *testing.B) {
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig8(experiments.Fig89Config{
			FileSize: 512 * experiments.MB, MaxClients: 120,
		}, []int{2, 6})
	}
	get := func(m experiments.StorageModel, repl int) float64 {
		for _, r := range rows {
			if r.Model == m && r.Replication == repl {
				return float64(r.MaxClients)
			}
		}
		return 0
	}
	b.ReportMetric(get(experiments.AllActive, 6), "allActiveR6")
	b.ReportMetric(get(experiments.ActiveStandby, 6), "activeStandbyR6")
	b.ReportMetric(get(experiments.ActiveStandby, 6)/6, "clientsPerReplica")
}

func BenchmarkFig9ThroughputAtFixedConcurrency(b *testing.B) {
	var rows []experiments.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(experiments.Fig89Config{
			FileSize: 512 * experiments.MB,
		}, 40, []int{3, 6})
	}
	for _, r := range rows {
		if r.Replication != 6 {
			continue
		}
		switch r.Model {
		case experiments.AllActive:
			b.ReportMetric(r.Throughput, "allActiveMBps")
			b.ReportMetric(r.AvgExecSec, "allActiveExec_s")
		case experiments.ActiveStandby:
			b.ReportMetric(r.Throughput, "activeStandbyMBps")
			b.ReportMetric(r.AvgExecSec, "activeStandbyExec_s")
		}
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	var rows []experiments.AblationPlacementRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationPlacement()
	}
	for _, r := range rows {
		if r.Policy == "erms-algorithm1" {
			b.ReportMetric(float64(r.RemovalsFromActive), "ermsActiveRemovals")
		} else {
			b.ReportMetric(float64(r.RemovalsFromActive), "defaultActiveRemovals")
		}
	}
}

func BenchmarkAblationIdleScheduling(b *testing.B) {
	var rows []experiments.AblationIdleRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationIdleScheduling()
	}
	for _, r := range rows {
		if r.Scheduling == "immediate" {
			b.ReportMetric(r.AvgReadSec, "immediateRead_s")
		} else {
			b.ReportMetric(r.AvgReadSec, "deferredRead_s")
		}
	}
}

func BenchmarkAblationSpeculation(b *testing.B) {
	var rows []experiments.AblationSpeculationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationSpeculation()
	}
	for _, r := range rows {
		if r.Mode == "speculative" {
			b.ReportMetric(r.MakespanSec, "speculativeMakespan_s")
		} else {
			b.ReportMetric(r.MakespanSec, "plainMakespan_s")
		}
	}
}

func BenchmarkReliabilityMonteCarlo(b *testing.B) {
	var rows []experiments.ReliabilityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Reliability(800, []int{3, 5}, 11)
	}
	for _, r := range rows {
		if r.NodesFailed != 5 {
			continue
		}
		switch r.Scheme {
		case "replication-3":
			b.ReportMetric(r.LossProb, "repl3LossAt5")
		case "rs(10,4)":
			b.ReportMetric(r.LossProb, "rsLossAt5")
		}
	}
}
