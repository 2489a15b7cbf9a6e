package core

import (
	"testing"
	"time"

	"erms/internal/condor"
	"erms/internal/hdfs"
	"erms/internal/topology"
)

// checkAds fails unless the scheduler lists every datanode once, in
// datanode order, each advertising the ad machineAd builds for it now.
func checkAds(t *testing.T, h *hdfs.Cluster, m *Manager) {
	t.Helper()
	ms := m.Scheduler().Machines()
	if len(ms) != h.NumDatanodes() {
		t.Fatalf("%d machines advertised, want %d", len(ms), h.NumDatanodes())
	}
	for i, d := range h.Datanodes() {
		if ms[i].Name != d.Name || ms[i].Ad != machineAd(d) {
			t.Fatalf("machine %d is %s advertising %+v; want %s advertising %+v",
				i, ms[i].Name, ms[i].Ad, d.Name, machineAd(d))
		}
	}
}

// TestRefreshAdsAdvertisesCurrentState: refreshAds runs after every job
// and commission; afterwards every machine's ad must equal machineAd of
// its datanode — a commissioned node's new State, a new replica's FreeGB.
func TestRefreshAdsAdvertisesCurrentState(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	checkAds(t, h, m)
	if _, err := h.CreateFile("/f", 64*mb, 3, 0); err != nil {
		t.Fatal(err)
	}
	m.refreshAds() // the create moved three nodes' free space
	checkAds(t, h, m)

	// Commissioning fires OnDatanodeUp, which refreshes.
	if got := m.Scheduler().Machines()[12].Ad.State; got != "standby" {
		t.Fatalf("node 12 advertises State %q before commissioning", got)
	}
	h.Commission(12)
	checkAds(t, h, m)
	if got := m.Scheduler().Machines()[12].Ad.State; got != "active" {
		t.Fatalf("commissioned node advertises State %q", got)
	}

	// One more replica of /f lands on one node; its FreeGB drops.
	held := map[hdfs.DatanodeID]bool{}
	for _, dn := range h.Replicas(h.File("/f").Blocks[0]) {
		held[dn] = true
	}
	h.SetReplication("/f", 4, hdfs.WholeAtOnce, nil)
	e.RunUntil(e.Now() + time.Minute)
	var gained []hdfs.DatanodeID
	for _, dn := range h.Replicas(h.File("/f").Blocks[0]) {
		if !held[dn] {
			gained = append(gained, dn)
		}
	}
	if len(gained) != 1 {
		t.Fatalf("replica landed on %v, want one new node", gained)
	}
	m.refreshAds()
	checkAds(t, h, m)
	d := h.Datanode(gained[0])
	if free := m.Scheduler().Machines()[d.ID].Ad.FreeGB; free != d.Free()/topology.GB || free >= d.Capacity/topology.GB {
		t.Fatalf("node %d advertises FreeGB %v, has %v of %v", d.ID, free, d.Free()/topology.GB, d.Capacity/topology.GB)
	}
}

// TestReplicateAdAgainstMachineAds pins the one job ad ERMS ships against
// the machine ads it advertises: only an active datanode matches, an ad
// with no State does not, and Rank orders matches by free space.
func TestReplicateAdAgainstMachineAds(t *testing.T) {
	_, h, _ := testbed(t, smallThresholds())
	d := h.Datanode(0)
	adIn := func(s hdfs.NodeState, used float64) condor.MachineAd {
		state, was := d.State, d.Used
		d.State, d.Used = s, used
		defer func() { d.State, d.Used = state, was }()
		return machineAd(d)
	}
	stateless := condor.MachineAd{FreeGB: 10}
	for _, tc := range []struct {
		name    string
		machine condor.MachineAd
		match   bool
	}{
		{"active", adIn(hdfs.StateActive, 0), true},
		{"standby", adIn(hdfs.StateStandby, 0), false},
		{"down", adIn(hdfs.StateDown, 0), false},
		{"decommissioning", adIn(hdfs.StateDecommissioning, 0), false},
		{"decommissioned", adIn(hdfs.StateDecommissioned, 0), false},
		{"no State attribute", stateless, false},
	} {
		if got := replicateRequirements(&tc.machine); got != tc.match {
			t.Errorf("%s: Requirements = %v, want %v", tc.name, got, tc.match)
		}
	}

	empty, half := adIn(hdfs.StateActive, 0), adIn(hdfs.StateActive, d.Capacity/2)
	for _, tc := range []struct {
		name string
		a, b condor.MachineAd
		cmp  int // sign of Rank(a) - Rank(b)
	}{
		{"more free space ranks higher", empty, half, 1},
		{"less free space ranks lower", half, empty, -1},
		{"equal free space ties", half, adIn(hdfs.StateActive, d.Capacity/2), 0},
		{"no FreeGB ranks 0, below any free space", condor.MachineAd{}, half, -1},
	} {
		ra, rb := replicateRank(&tc.a), replicateRank(&tc.b)
		if (ra > rb) != (tc.cmp > 0) || (ra < rb) != (tc.cmp < 0) {
			t.Errorf("%s: ranks %v vs %v", tc.name, ra, rb)
		}
	}
	if want := d.Capacity / topology.GB; replicateRank(&empty) != want {
		t.Errorf("rank of an empty node = %v, want its FreeGB %v", replicateRank(&empty), want)
	}
}

// TestMatchmakingAllocCeiling: matching the replication job ad against a
// machine ad and ranking it allocates nothing — the negotiator does this
// for every datanode on every replication job — and neither does
// refreshAds, which re-advertises every datanode after every job.
func TestMatchmakingAllocCeiling(t *testing.T) {
	if raceBuild() {
		t.Skip("the ceiling is for uninstrumented builds")
	}
	_, h, m := testbed(t, smallThresholds())
	machine := machineAd(h.Datanode(0))
	if !replicateRequirements(&machine) {
		t.Fatal("the replication ad does not match an active datanode")
	}
	n := testing.AllocsPerRun(1000, func() {
		if replicateRequirements(&machine) {
			replicateRank(&machine)
		}
	})
	if n != 0 {
		t.Errorf("Requirements + Rank: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, m.refreshAds); n != 0 {
		t.Errorf("refreshAds over %d datanodes: %v allocs/op, want 0", h.NumDatanodes(), n)
	}
}
