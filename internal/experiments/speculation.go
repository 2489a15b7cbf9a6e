package experiments

import (
	"time"

	"erms/internal/mapred"
	"erms/internal/metrics"
)

// AblationSpeculationRow compares a job's makespan on a partially degraded
// cluster with and without speculative execution.
type AblationSpeculationRow struct {
	Mode        string
	MakespanSec float64
	Backups     int
	BackupsWon  int
}

// AblationSpeculation throttles two datanodes' disks mid-job (a common
// production pathology: a sick disk) and measures how Hadoop-style
// speculative execution contains the damage.
func AblationSpeculation() []AblationSpeculationRow {
	run := func(speculative bool) AblationSpeculationRow {
		tb := NewVanilla(18)
		if _, err := tb.Cluster.CreateFile("/in", 512*MB, 3, -1); err != nil {
			panic(err)
		}
		mr := mapred.New(tb.Cluster, 2, mapred.NewFIFO())
		j := &mapred.Job{Name: "job", File: "/in", Speculative: speculative}
		if err := mr.Submit(j); err != nil {
			panic(err)
		}
		tb.Engine.Schedule(200*time.Millisecond, func() {
			tb.Cluster.StartDiskLoad(0, 8, 10*MB)
			tb.Cluster.StartDiskLoad(1, 8, 10*MB)
		})
		tb.Engine.RunUntil(15 * time.Minute)
		mode := "no-speculation"
		if speculative {
			mode = "speculative"
		}
		return AblationSpeculationRow{
			Mode:        mode,
			MakespanSec: j.Duration().Seconds(),
			Backups:     j.SpeculativeLaunched,
			BackupsWon:  j.SpeculativeWon,
		}
	}
	return []AblationSpeculationRow{run(false), run(true)}
}

// AblationSpeculationTable renders the comparison.
func AblationSpeculationTable(rows []AblationSpeculationRow) *metrics.Table {
	t := &metrics.Table{
		Title:   "Ablation: speculative execution vs a sick disk (512 MB job)",
		Columns: []string{"mode", "makespan_s", "backups", "backups_won"},
	}
	for _, r := range rows {
		t.AddRowValues(r.Mode, r.MakespanSec, r.Backups, r.BackupsWon)
	}
	return t
}
