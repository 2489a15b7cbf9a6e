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
		if got, want := now[d.Name].String(), m.machineAd(d).String(); got != want {
			t.Fatalf("%s advertises %s, a rebuild would advertise %s", d.Name, got, want)
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
