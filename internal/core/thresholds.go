// Package core implements ERMS itself — the elastic replication management
// system of the paper: the Data Judge (a CEP consumer classifying data as
// hot, cooled, normal or cold via the paper's formulas (1)–(6)), the
// replica placement strategy of Algorithm 1, the Active/Standby storage
// model with energy accounting, and the manager that turns judge decisions
// into Condor jobs acting on the simulated HDFS cluster.
package core

import (
	"math"
	"time"

	"erms/internal/topology"
)

// Thresholds are the paper's tunables. All "per replica" rates are counts
// per judging window divided by the file's current replication factor r.
type Thresholds struct {
	// Window is the CEP sliding time window t_w over which access counts
	// are taken, in whole milliseconds. Default 5 min.
	Window time.Duration
	// TauM (τ_M) is the largest per-window access count one replica can
	// absorb: N_d/r > τ_M ⇒ hot (Formula 1). The paper measures τ_M ≈ 8
	// for its hardware (Figure 8). Default 8.
	TauM float64
	// MM (M_M) is the per-replica access bound for a single block:
	// ∃i N_bi/r > M_M ⇒ hot (Formula 2). Default 12.
	MM float64
	// Mm (M_m < M_M) is the lower per-block bound used with Epsilon:
	// count(N_bj/r > M_m)/n_d > ε ⇒ hot (Formula 3). Default 6.
	Mm float64
	// Epsilon (ε ∈ (0,1)) is the fraction of blocks that must be intensely
	// accessed for Formula 3. Default 0.5.
	Epsilon float64
	// TauDN (τ_DN) bounds the block accesses a datanode serves per window
	// (Formula 4); beyond it the file contributing most load gains
	// replicas. Default 48.
	TauDN float64
	// TauD (τ_d) is the cooled threshold: N_d/r < τ_d with extra replicas
	// ⇒ cooled, drop back to default (Formula 5). Default 1.
	TauD float64
	// TauSmall (τ_m < τ_d) is the cold access threshold (Formula 6).
	// Default 0.5.
	TauSmall float64
	// ColdAge is t in Formula 6: a file additionally needs
	// now-lastAccess > ColdAge to be cold. Default 2h.
	ColdAge time.Duration
	// CooldownWindows is the hysteresis on Formula 5: a file must look
	// cooled for this many consecutive judge passes before its extra
	// replicas are reclaimed. Without it a file whose demand hovers near
	// the threshold thrashes between increase and decrease, and every
	// cycle re-copies gigabytes. Default 2.
	CooldownWindows int
	// MaxReplication caps r* (bounded by cluster size p+q at evaluation
	// time as well). Default 10.
	MaxReplication int
	// EncodeK/EncodeM are the erasure stripe geometry for cold data; the
	// paper uses Reed–Solomon with four parities. Defaults 10 and 4.
	EncodeK, EncodeM int
}

// DefaultThresholds returns the paper-calibrated defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Window:          5 * time.Minute,
		TauM:            8,
		MM:              12,
		Mm:              6,
		Epsilon:         0.5,
		TauDN:           48,
		TauD:            1,
		TauSmall:        0.5,
		ColdAge:         2 * time.Hour,
		CooldownWindows: 2,
		MaxReplication:  10,
		EncodeK:         10,
		EncodeM:         4,
	}
}

func (t *Thresholds) applyDefaults() {
	d := DefaultThresholds()
	if t.Window <= 0 {
		t.Window = d.Window
	}
	if t.TauM <= 0 {
		t.TauM = d.TauM
	}
	// The per-block and per-datanode bounds scale with τ_M so that tuning
	// τ_M (the paper's ERMS_τM=8/6/4 series) moves the whole family of hot
	// rules coherently: M_M = 1.5·τ_M, M_m = 0.75·τ_M, τ_DN = 6·τ_M. At
	// the default τ_M = 8 these give the canonical 12 / 6 / 48.
	if t.MM <= 0 {
		t.MM = 1.5 * t.TauM
	}
	if t.Mm <= 0 {
		t.Mm = 0.75 * t.TauM
	}
	if t.Epsilon <= 0 || t.Epsilon >= 1 {
		t.Epsilon = d.Epsilon
	}
	if t.TauDN <= 0 {
		t.TauDN = 6 * t.TauM
	}
	if t.TauD <= 0 {
		t.TauD = d.TauD
	}
	if t.TauSmall <= 0 {
		t.TauSmall = d.TauSmall
	}
	if t.ColdAge <= 0 {
		t.ColdAge = d.ColdAge
	}
	if t.CooldownWindows <= 0 {
		t.CooldownWindows = d.CooldownWindows
	}
	if t.MaxReplication <= 0 {
		t.MaxReplication = d.MaxReplication
	}
	if t.EncodeK <= 0 {
		t.EncodeK = d.EncodeK
	}
	if t.EncodeM <= 0 {
		t.EncodeM = d.EncodeM
	}
}

// CalibrateTauM derives τ_M from the cluster hardware: the number of
// concurrent readers one replica (one disk) can serve while every client
// still sees at least minClientRate — the measurement behind the paper's
// Figure 8 ("the maximum of τ_M in our environment" is 8). ERMS "could
// dynamically change these thresholds based on system environments"; this
// is that computation.
func CalibrateTauM(diskBW, minClientRate float64) float64 {
	if minClientRate <= 0 || diskBW <= 0 {
		return DefaultThresholds().TauM
	}
	return math.Floor(diskBW / minClientRate)
}

// DefaultMinClientRate is the acceptable per-client streaming floor used
// for calibration (8 MB/s against an 80 MB/s disk gives τ_M = 10; the
// paper's slightly slower effective disks give 8–10).
const DefaultMinClientRate = 8 * topology.MB

// CalibrateThresholds derives a full threshold set from the cluster's own
// hardware: τ_M from the disk-bandwidth/client-rate ratio, with the
// dependent bounds scaling from it. This is the paper's "ERMS could
// dynamically change these thresholds based on system environments" made
// concrete — pass the result to Config.Thresholds (optionally overriding
// individual fields first).
func CalibrateThresholds(topo *topology.Topology, minClientRate float64) Thresholds {
	if minClientRate <= 0 {
		minClientRate = DefaultMinClientRate
	}
	diskBW := 0.0
	if len(topo.Nodes) > 0 {
		diskBW = topo.Links[topo.Nodes[0].Disk].Capacity
	}
	th := Thresholds{TauM: CalibrateTauM(diskBW, minClientRate)}
	th.applyDefaults()
	return th
}
