package core

import (
	"testing"
	"time"

	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

const mb = float64(topology.MB)

// testbed builds the paper's deployment: 18 datanodes in 3 racks, the
// first 10 active, the last 8 the ERMS standby pool.
func testbed(t *testing.T, th Thresholds) (*sim.Engine, *hdfs.Cluster, *Manager) {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	var standby []hdfs.DatanodeID
	for id := 10; id < 18; id++ {
		standby = append(standby, hdfs.DatanodeID(id))
	}
	h := hdfs.New(e, hdfs.Config{
		Topology:     topo,
		StandbyNodes: standby,
	})
	m := New(h, Config{
		Thresholds:  th,
		JudgePeriod: time.Hour, // tests call RunJudgeOnce explicitly
	})
	return e, h, m
}

func smallThresholds() Thresholds {
	return Thresholds{
		Window:   5 * time.Minute,
		TauM:     4,
		MM:       8,
		Mm:       4,
		Epsilon:  0.5,
		TauDN:    1000,
		TauD:     1,
		TauSmall: 0.5,
		ColdAge:  30 * time.Minute,
		EncodeK:  10, EncodeM: 4,
		MaxReplication:  10,
		CooldownWindows: 1,
	}
}

func TestDefaultsAndCalibration(t *testing.T) {
	th := Thresholds{}
	th.applyDefaults()
	if th.TauM != 8 || th.EncodeM != 4 || th.Window != 5*time.Minute {
		t.Fatalf("defaults: %+v", th)
	}
	// The dependent bounds scale from a tuned τ_M.
	th = Thresholds{TauM: 10}
	th.applyDefaults()
	if th.MM != 15 || th.Mm != 7.5 || th.TauDN != 60 {
		t.Fatalf("dependent bounds: MM=%v Mm=%v TauDN=%v", th.MM, th.Mm, th.TauDN)
	}
}

func TestActionAndClassStrings(t *testing.T) {
	if ActionIncrease.String() != "increase" || ActionDecrease.String() != "decrease" ||
		ActionEncode.String() != "encode" || ActionDecode.String() != "decode" ||
		Action(9).String() != "unknown" {
		t.Fatal("action strings")
	}
	if Hot.String() != "hot" || Cooled.String() != "cooled" || Cold.String() != "cold" ||
		Normal.String() != "normal" {
		t.Fatal("class strings")
	}
}

func hammer(e *sim.Engine, h *hdfs.Cluster, path string, readers int) {
	for i := 0; i < readers; i++ {
		client := topology.NodeID(i % 10)
		h.ReadFile(client, path, nil)
	}
}

func TestJudgeFormula1Hot(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	h.CreateFile("/hot", 64*mb, 3, 0)
	hammer(e, h, "/hot", 20) // N_d=20, r=3: 6.7 > τ_M 4
	e.RunUntil(time.Minute)
	ds := m.Judge().Evaluate()
	if len(ds) == 0 {
		t.Fatal("no decisions")
	}
	d := ds[0]
	if d.Path != "/hot" || d.Action != ActionIncrease || d.Formula != 1 {
		t.Fatalf("decision = %+v", d)
	}
	// r* = ceil(20/4) = 5.
	if d.TargetRepl != 5 {
		t.Fatalf("target = %d, want 5", d.TargetRepl)
	}
}

func TestJudgeFormula2SingleHotBlock(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	f, _ := h.CreateFile("/skewed", 640*mb, 3, 0) // 10 blocks
	// Hammer one block only: block-level heat without file-level heat.
	for i := 0; i < 30; i++ {
		h.ReadBlock(topology.NodeID(i%10), f.Blocks[0], func(float64, hdfs.Locality, error) {})
	}
	e.RunUntil(time.Minute)
	ds := m.Judge().Evaluate()
	found := false
	for _, d := range ds {
		if d.Path == "/skewed" && d.Action == ActionIncrease && d.Formula == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("formula 2 not triggered: %v", ds)
	}
}

func TestJudgeFormula3ManyWarmBlocks(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	f, _ := h.CreateFile("/warm", 256*mb, 3, 0) // 4 blocks
	// All 4 blocks moderately hot: 13 accesses each => N_b/r ≈ 4.3 > M_m=4
	// but <= M_M=8; 4/4 blocks > ε=0.5; file N_d via ReadBlock stays 0 so
	// formula 1 cannot fire.
	for b := 0; b < 4; b++ {
		for i := 0; i < 13; i++ {
			h.ReadBlock(topology.NodeID(i%10), f.Blocks[b], func(float64, hdfs.Locality, error) {})
		}
	}
	e.RunUntil(time.Minute)
	ds := m.Judge().Evaluate()
	found := false
	for _, d := range ds {
		if d.Path == "/warm" && d.Formula == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("formula 3 not triggered: %v", ds)
	}
}

func TestJudgeFormula4OverloadedDatanode(t *testing.T) {
	th := smallThresholds()
	th.TauM = 1000 // suppress formula 1
	th.MM = 1000
	th.Mm = 900
	th.TauDN = 10
	e, h, m := testbed(t, th)
	h.CreateFile("/busy", 64*mb, 1, 0) // single replica on node 0
	for i := 0; i < 15; i++ {
		h.ReadBlock(topology.NodeID(i%9+1), h.File("/busy").Blocks[0],
			func(float64, hdfs.Locality, error) {})
	}
	e.RunUntil(time.Minute)
	ds := m.Judge().Evaluate()
	found := false
	for _, d := range ds {
		if d.Path == "/busy" && d.Formula == 4 && d.Action == ActionIncrease {
			found = true
		}
	}
	if !found {
		t.Fatalf("formula 4 not triggered: %v", ds)
	}
}

func TestJudgeFormula5Cooled(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	h.CreateFile("/cooled", 64*mb, 3, 0)
	var done bool
	h.SetReplication("/cooled", 6, hdfs.WholeAtOnce, func(error) { done = true })
	e.RunUntil(10 * time.Minute) // replicas land; no reads in window
	if !done {
		t.Fatal("setrep incomplete")
	}
	ds := m.Judge().Evaluate()
	found := false
	for _, d := range ds {
		if d.Path == "/cooled" && d.Action == ActionDecrease && d.Formula == 5 {
			if d.TargetRepl != 3 {
				t.Fatalf("cooled target = %d", d.TargetRepl)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("formula 5 not triggered: %v", ds)
	}
}

func TestJudgeFormula6Cold(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	h.CreateFile("/cold", 128*mb, 3, 0)
	e.RunUntil(40 * time.Minute) // beyond ColdAge with no access
	ds := m.Judge().Evaluate()
	found := false
	for _, d := range ds {
		if d.Path == "/cold" && d.Action == ActionEncode {
			found = true
		}
	}
	if !found {
		t.Fatalf("formula 6 not triggered: %v", ds)
	}
}

func TestRecentAccessPreventsCold(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	h.CreateFile("/touched", 64*mb, 3, 0)
	e.RunUntil(25 * time.Minute)
	h.ReadFile(1, "/touched", nil)
	e.RunUntil(40 * time.Minute)
	// Last access 15 min ago < ColdAge 30 min: not cold.
	for _, d := range m.Judge().Evaluate() {
		if d.Path == "/touched" && d.Action == ActionEncode {
			t.Fatalf("recently accessed file judged cold: %+v", d)
		}
	}
}

func TestManagerEndToEndHotCooledLifecycle(t *testing.T) {
	th := smallThresholds()
	e, h, m := testbed(t, th)
	h.CreateFile("/hot", 64*mb, 3, 0)
	hammer(e, h, "/hot", 24)
	e.RunUntil(time.Minute)
	m.RunJudgeOnce()
	e.RunUntil(10 * time.Minute)
	// r* = ceil(24/4) = 6: three extras, placed on commissioned pool nodes.
	if got := h.ReplicationOf("/hot"); got != 6 {
		t.Fatalf("replication = %d, want 6", got)
	}
	extrasOnPool := 0
	for _, r := range h.Replicas(h.File("/hot").Blocks[0]) {
		if m.InStandbyPool(r) {
			extrasOnPool++
		}
	}
	if extrasOnPool != 3 {
		t.Fatalf("extras on pool nodes = %d, want 3", extrasOnPool)
	}
	if m.Stats().Commissions == 0 {
		t.Fatal("no standby nodes were commissioned")
	}

	// Cool-down: a judging pass with an empty window shrinks it back and
	// powers the pool nodes off.
	e.RunUntil(20 * time.Minute) // window drains
	m.RunJudgeOnce()
	e.RunUntil(40 * time.Minute)
	if got := h.ReplicationOf("/hot"); got != 3 {
		t.Fatalf("replication after cooldown = %d, want 3", got)
	}
	st := m.Stats()
	if st.Decreases == 0 || st.Shutdowns == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Drained pool nodes powered down.
	for _, d := range h.Datanodes() {
		if m.InStandbyPool(d.ID) && d.NumBlocks() == 0 && d.State == hdfs.StateActive {
			t.Fatalf("drained pool node %s still active", d.Name)
		}
	}
}

func TestManagerEncodesColdAndDecodesOnAccess(t *testing.T) {
	th := smallThresholds()
	e, h, m := testbed(t, th)
	h.CreateFile("/archive", 640*mb, 3, 0)
	before := h.TotalUsed()
	e.RunUntil(40 * time.Minute)
	m.RunJudgeOnce()
	e.RunUntil(80 * time.Minute)
	f := h.File("/archive")
	if !f.Encoded {
		t.Fatal("cold file not encoded")
	}
	if h.TotalUsed() >= before {
		t.Fatal("encoding did not reduce storage")
	}
	if m.Stats().Encodes != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}

	// Access the archive: next judging pass decodes it immediately.
	h.ReadFile(2, "/archive", nil)
	e.RunUntil(81 * time.Minute)
	m.RunJudgeOnce()
	e.RunUntil(120 * time.Minute)
	if h.File("/archive").Encoded {
		t.Fatal("warmed file still encoded")
	}
	if got := h.ReplicationOf("/archive"); got != 3 {
		t.Fatalf("decoded replication = %d", got)
	}
	if m.Stats().Decodes != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestIdleDeferralOfShrinkJobs(t *testing.T) {
	th := smallThresholds()
	e, h, m := testbed(t, th)
	h.CreateFile("/f", 64*mb, 6, 0) // over-replicated from the start
	// Keep the cluster busy with a continuous stream of reads.
	stopReads := false
	var pump func()
	pump = func() {
		if stopReads {
			return
		}
		h.ReadFile(3, "/f", func(*hdfs.ReadResult) { pump() })
	}
	pump()
	e.RunUntil(30 * time.Second)
	m.RunJudgeOnce() // cooled? N_d/r during busy window is high; force clean judge below
	e.RunUntil(time.Minute)
	// The file is NOT cooled while being read. Now stop reads, drain, and
	// judge again: shrink job is idle-class and must wait for idleness —
	// which arrives as soon as reads stop.
	stopReads = true
	e.RunUntil(16 * time.Minute) // window empties (5 min) + slack
	m.RunJudgeOnce()
	e.RunUntil(30 * time.Minute)
	if got := h.ReplicationOf("/f"); got != 3 {
		t.Fatalf("replication = %d, want 3 after idle shrink", got)
	}
}

func TestPlacementParityAvoidsDataNodes(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	_ = m
	h.CreateFile("/cold", 320*mb, 3, 0) // 5 blocks
	var err error
	encoded := false
	h.EncodeFile("/cold", 5, 2, func(e2 error) { err = e2; encoded = true })
	e.RunUntil(10 * time.Minute)
	if err != nil || !encoded {
		t.Fatalf("encode: err=%v done=%v", err, encoded)
	}
	f := h.File("/cold")
	// Parity must not be on the standby pool and must prefer nodes with
	// few of the file's blocks.
	for _, pid := range f.Parity {
		for _, r := range h.Replicas(pid) {
			if m.InStandbyPool(r) {
				t.Fatalf("parity on pool node %d", r)
			}
		}
	}
	checkParityDisjoint(t, h, f)
}

func checkParityDisjoint(t *testing.T, h *hdfs.Cluster, f *hdfs.INode) {
	t.Helper()
	dataNodes := map[hdfs.DatanodeID]int{}
	for _, bid := range f.Blocks {
		for _, r := range h.Replicas(bid) {
			dataNodes[r]++
		}
	}
	for _, pid := range f.Parity {
		for _, r := range h.Replicas(pid) {
			if dataNodes[r] > 1 {
				t.Fatalf("parity node %d holds %d data blocks of the file", r, dataNodes[r])
			}
		}
	}
}

func TestEnergyReport(t *testing.T) {
	th := smallThresholds()
	e, h, m := testbed(t, th)
	h.CreateFile("/f", 64*mb, 3, 0)
	e.RunUntil(2 * time.Hour)
	rep := m.Energy()
	if rep.PoolNodes != 8 {
		t.Fatalf("pool nodes = %d", rep.PoolNodes)
	}
	if rep.PoolActiveTime != 0 {
		t.Fatalf("pool uptime = %v with no commissions", rep.PoolActiveTime)
	}
	if rep.SavedNodeHours < 15.9 || rep.SavedNodeHours > 16.1 { // 8 nodes x 2 h
		t.Fatalf("saved = %v node-hours", rep.SavedNodeHours)
	}
}

func TestUserLogRecordsManagementJobs(t *testing.T) {
	th := smallThresholds()
	e, h, m := testbed(t, th)
	h.CreateFile("/hot", 64*mb, 3, 0)
	hammer(e, h, "/hot", 24)
	e.RunUntil(time.Minute)
	m.RunJudgeOnce()
	e.RunUntil(10 * time.Minute)
	if m.Scheduler().Stats().Completed == 0 {
		t.Fatal("no management job recorded in the user log")
	}
	if len(m.History()) == 0 {
		t.Fatal("no decision history")
	}
	if m.History()[0].String() == "" {
		t.Fatal("decision string")
	}
}

func TestDisableAutoCommission(t *testing.T) {
	e := sim.NewEngine()
	topo := topology.New(topology.Config{})
	var standby []hdfs.DatanodeID
	for id := 10; id < 18; id++ {
		standby = append(standby, hdfs.DatanodeID(id))
	}
	h := hdfs.New(e, hdfs.Config{Topology: topo, StandbyNodes: standby})
	m := New(h, Config{
		Thresholds:            smallThresholds(),
		JudgePeriod:           time.Hour,
		DisableAutoCommission: true,
	})
	h.CreateFile("/hot", 64*mb, 3, 0)
	hammer(e, h, "/hot", 24)
	e.RunUntil(time.Minute)
	m.RunJudgeOnce()
	e.RunUntil(10 * time.Minute)
	if m.Stats().Commissions != 0 {
		t.Fatal("commissioned despite DisableAutoCommission")
	}
	// Extras land on active nodes instead.
	if got := h.ReplicationOf("/hot"); got != 6 {
		t.Fatalf("replication = %d, want 6 (on active nodes)", got)
	}
}

func TestRenameMigratesJudgeState(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	h.CreateFile("/old", 64*mb, 3, 0)
	e.RunUntil(time.Minute)
	h.ReadFile(1, "/old", nil)
	e.RunUntil(2 * time.Minute)
	if at, ok := m.Judge().LastAccess("/old"); !ok || at != time.Minute {
		t.Fatalf("no access recorded: %v %v", at, ok)
	}
	if err := h.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Judge().LastAccess("/old"); ok {
		t.Fatal("old path state not dropped")
	}
	at, ok := m.Judge().LastAccess("/new")
	if !ok || at == 0 {
		t.Fatalf("state not migrated: %v %v", at, ok)
	}
	// The renamed file keeps its age: 40 minutes after its only access it
	// is judged cold under the new name.
	e.RunUntil(45 * time.Minute)
	found := false
	for _, d := range m.Judge().Evaluate() {
		if d.Path == "/new" && d.Action == ActionEncode {
			found = true
		}
	}
	if !found {
		t.Fatal("renamed file did not age into cold")
	}
}

func TestDeleteDropsJudgeState(t *testing.T) {
	e, h, m := testbed(t, smallThresholds())
	h.CreateFile("/f", 64*mb, 3, 0)
	h.ReadFile(1, "/f", nil)
	e.RunUntil(time.Minute)
	if err := h.DeleteFile("/f"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Judge().LastAccess("/f"); ok {
		t.Fatal("deleted file's state retained")
	}
}
