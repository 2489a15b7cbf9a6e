package core

import (
	"testing"
	"time"

	"erms/internal/classad"
	"erms/internal/hdfs"
	"erms/internal/topology"
)

// adPointers snapshots every machine's current ad, by datanode name.
func adPointers(m *Manager) map[string]*classad.ClassAd {
	out := map[string]*classad.ClassAd{}
	for _, mc := range m.Scheduler().Machines() {
		out[mc.Name] = mc.Ad
	}
	return out
}

// readvertised lists, in datanode order, the nodes whose ad was replaced
// since before, and fails if any ad — replaced or kept — differs from the
// one a full rebuild would advertise now.
func readvertised(t *testing.T, h *hdfs.Cluster, m *Manager, before map[string]*classad.ClassAd) []hdfs.DatanodeID {
	t.Helper()
	now := adPointers(m)
	var out []hdfs.DatanodeID
	for _, d := range h.Datanodes() {
		if now[d.Name] != before[d.Name] {
			out = append(out, d.ID)
		}
		for _, attr := range []string{"Name", "Rack", "State", "StandbyPool", "FreeGB"} {
			if got, want := now[d.Name].Eval(attr, nil), m.machineAd(d).Eval(attr, nil); got != want {
				t.Fatalf("%s advertises %s = %v, a rebuild would advertise %v", d.Name, attr, got, want)
			}
		}
	}
	return out
}

// TestRefreshAdsReadvertisesOnlyChangedNodes: refreshAds runs after every
// job and commission; it must leave an unchanged node's ad alone and
// replace exactly the changed ones, with their new State and FreeGB.
func TestRefreshAdsReadvertisesOnlyChangedNodes(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	if _, err := h.CreateFile("/f", 64*mb, 3, 0); err != nil {
		t.Fatal(err)
	}
	m.refreshAds() // the create moved three nodes' free space
	if len(adPointers(m)) != h.NumDatanodes() {
		t.Fatalf("%d machines advertised, want %d", len(adPointers(m)), h.NumDatanodes())
	}

	before := adPointers(m)
	m.refreshAds()
	if got := readvertised(t, h, m, before); len(got) != 0 {
		t.Fatalf("refresh with no node change re-advertised %v", got)
	}

	// Commissioning fires OnDatanodeUp, which refreshes.
	h.Commission(12)
	if got := readvertised(t, h, m, before); len(got) != 1 || got[0] != 12 {
		t.Fatalf("commissioning node 12 re-advertised %v", got)
	}
	ad := adPointers(m)[h.Datanode(12).Name]
	if got := ad.Eval("State", nil).String(); got != `"active"` {
		t.Fatalf("commissioned node advertises State %s", got)
	}

	// One more replica of /f lands on one node; only its FreeGB moves.
	before = adPointers(m)
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
	if got := readvertised(t, h, m, before); len(got) != 1 || got[0] != gained[0] {
		t.Fatalf("adding a replica on node %d re-advertised %v", gained[0], got)
	}
	d := h.Datanode(gained[0])
	free, _ := adPointers(m)[d.Name].Eval("FreeGB", nil).Number()
	if want := d.Free() / topology.GB; free != want {
		t.Fatalf("node %d advertises FreeGB %v, has %v", d.ID, free, want)
	}
}

// TestReplicateAdAgainstMachineAds pins the one job ad ERMS ships against
// the machine ads it advertises: only an active datanode matches, an ad
// with no State (undefined Requirements) does not, and Rank orders matches
// by free space.
func TestReplicateAdAgainstMachineAds(t *testing.T) {
	_, h, m := testbed(t, smallThresholds())
	d := h.Datanode(0)
	adIn := func(s hdfs.NodeState, used float64) *classad.ClassAd {
		state, was := d.State, d.Used
		d.State, d.Used = s, used
		defer func() { d.State, d.Used = state, was }()
		return m.machineAd(d)
	}
	stateless := classad.NewClassAd().Set("Name", "bare").Set("FreeGB", 10)
	if got := replicateAd.Eval(classad.Requirements, stateless); got != classad.Undefined {
		t.Errorf("Requirements against an ad with no State = %v, want undefined", got)
	}
	for _, tc := range []struct {
		name    string
		machine *classad.ClassAd
		match   bool
	}{
		{"active", adIn(hdfs.StateActive, 0), true},
		{"standby", adIn(hdfs.StateStandby, 0), false},
		{"down", adIn(hdfs.StateDown, 0), false},
		{"decommissioning", adIn(hdfs.StateDecommissioning, 0), false},
		{"decommissioned", adIn(hdfs.StateDecommissioned, 0), false},
		{"no State attribute", stateless, false},
	} {
		if got := classad.Match(replicateAd, tc.machine); got != tc.match {
			t.Errorf("%s: Match = %v, want %v", tc.name, got, tc.match)
		}
	}

	empty, half := adIn(hdfs.StateActive, 0), adIn(hdfs.StateActive, d.Capacity/2)
	for _, tc := range []struct {
		name string
		a, b *classad.ClassAd
		cmp  int // sign of RankOf(a) - RankOf(b)
	}{
		{"more free space ranks higher", empty, half, 1},
		{"less free space ranks lower", half, empty, -1},
		{"equal free space ties", half, adIn(hdfs.StateActive, d.Capacity/2), 0},
		{"no FreeGB ranks 0, below any free space", classad.NewClassAd(), half, -1},
	} {
		ra, rb := classad.RankOf(replicateAd, tc.a), classad.RankOf(replicateAd, tc.b)
		if (ra > rb) != (tc.cmp > 0) || (ra < rb) != (tc.cmp < 0) {
			t.Errorf("%s: ranks %v vs %v", tc.name, ra, rb)
		}
	}
	if want := d.Capacity / topology.GB; classad.RankOf(replicateAd, empty) != want {
		t.Errorf("rank of an empty node = %v, want its FreeGB %v", classad.RankOf(replicateAd, empty), want)
	}
}
