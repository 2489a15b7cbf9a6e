package invariant

import (
	"fmt"
	"time"

	"erms/internal/hdfs"
	"erms/internal/workload"
)

// Scenario oracles: cross-cutting properties of the production-shaped
// workloads — tenant isolation (no tenant starves while others are served)
// and flash-crowd reaction time (first hot read → replica-add completion).
// Both are accumulators the replay loop feeds; Check runs after the run.

// TenantIsolation accumulates per-tenant submitted and served traffic from
// a multi-tenant replay and checks no tenant was starved.
type TenantIsolation struct {
	submitted map[string]int
	served    map[string]int
	bytes     map[string]float64
	failed    map[string]int
}

// NewTenantIsolation returns an empty accumulator.
func NewTenantIsolation() *TenantIsolation {
	return &TenantIsolation{
		submitted: map[string]int{},
		served:    map[string]int{},
		bytes:     map[string]float64{},
		failed:    map[string]int{},
	}
}

// ObserveSubmit records a job entering the system.
func (ti *TenantIsolation) ObserveSubmit(js workload.JobSpec) {
	if js.Tenant != "" {
		ti.submitted[js.Tenant]++
	}
}

// ObserveDone records a completed (or failed) read for the job's tenant.
func (ti *TenantIsolation) ObserveDone(js workload.JobSpec, r *hdfs.ReadResult) {
	if js.Tenant == "" {
		return
	}
	if r != nil && r.Err == nil {
		ti.served[js.Tenant]++
		ti.bytes[js.Tenant] += r.Bytes
	} else {
		ti.failed[js.Tenant]++
	}
}

// Fairness returns Jain's index over per-tenant served bytes.
func (ti *TenantIsolation) Fairness() float64 {
	_, shares := workload.TenantBytes(ti.bytes)
	return workload.JainFairness(shares)
}

// Check verifies every tenant that submitted work was served at least
// minShare of its submissions (completion ratio, not byte share: a tenant
// of small files legitimately moves fewer bytes). It returns violations
// rather than failing, so storm harnesses can fold them into their own
// reporting.
func (ti *TenantIsolation) Check(minShare float64) []string {
	var out []string
	for tenant, n := range ti.submitted {
		if n == 0 {
			continue
		}
		done := ti.served[tenant] + ti.failed[tenant]
		if done == 0 {
			// Nothing resolved yet (run cut short): judged by Check callers
			// only after the replay horizon, so this is starvation.
			out = append(out, fmt.Sprintf("tenant %q: %d submitted, none resolved", tenant, n))
			continue
		}
		ratio := float64(ti.served[tenant]) / float64(n)
		if ratio < minShare {
			out = append(out, fmt.Sprintf("tenant %q: served %d/%d (%.0f%%) < %.0f%% floor",
				tenant, ti.served[tenant], n, ratio*100, minShare*100))
		}
	}
	return out
}

// Reaction tracks the flash-crowd headline metric: the time from the first
// read of the viral file to the moment the judge's replica increase lands.
type Reaction struct {
	Spike        time.Duration // when the crowd started (trace time)
	FirstRead    time.Duration // first viral read observed
	ReplicaAdded time.Duration // replication increase completed
	hasFirst     bool
	hasAdd       bool
}

// ObserveRead records a viral-file read; only the first one matters.
func (rx *Reaction) ObserveRead(at time.Duration) {
	if !rx.hasFirst {
		rx.FirstRead, rx.hasFirst = at, true
	}
}

// ObserveReplicaAdd records the completion of a replication increase on the
// viral file; only the first one (the judge's reaction) matters.
func (rx *Reaction) ObserveReplicaAdd(at time.Duration) {
	if !rx.hasAdd {
		rx.ReplicaAdded, rx.hasAdd = at, true
	}
}

// Reacted reports whether a replica add completed after a first read.
func (rx *Reaction) Reacted() bool { return rx.hasFirst && rx.hasAdd }

// Time returns the reaction time (first read → replica add) or -1 if the
// judge never reacted.
func (rx *Reaction) Time() time.Duration {
	if !rx.Reacted() {
		return -1
	}
	return rx.ReplicaAdded - rx.FirstRead
}

// Check verifies the judge reacted within max. Violations are returned, not
// fatal, matching TenantIsolation.
func (rx *Reaction) Check(max time.Duration) []string {
	if !rx.hasFirst {
		return []string{"flash crowd never read the viral file"}
	}
	if !rx.hasAdd {
		return []string{"judge never added a replica to the viral file"}
	}
	if got := rx.Time(); got < 0 || got > max {
		return []string{fmt.Sprintf("judge reaction took %v, budget %v", got, max)}
	}
	return nil
}
