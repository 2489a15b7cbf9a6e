package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"erms/internal/auditlog"
	"erms/internal/cep"
	"erms/internal/hdfs"
)

// Action is what the judge wants done to a file.
type Action int

// Judge actions.
const (
	// ActionIncrease raises a hot file's replication to TargetRepl
	// (scheduled immediately).
	ActionIncrease Action = iota
	// ActionDecrease returns a cooled file to the default factor
	// (scheduled when idle).
	ActionDecrease
	// ActionEncode erasure-codes a cold file (scheduled when idle).
	ActionEncode
	// ActionDecode restores an encoded file that warmed up (immediate).
	ActionDecode
)

// String names the action for logs and reports.
func (a Action) String() string {
	switch a {
	case ActionIncrease:
		return "increase"
	case ActionDecrease:
		return "decrease"
	case ActionEncode:
		return "encode"
	case ActionDecode:
		return "decode"
	}
	return "unknown"
}

// DataType is the paper's four-way classification.
type DataType int

// Data classes ("the data in HDFS could be classified into four types").
const (
	Normal DataType = iota
	Hot
	Cooled
	Cold
)

// String names the temperature class for logs and reports.
func (d DataType) String() string {
	switch d {
	case Hot:
		return "hot"
	case Cooled:
		return "cooled"
	case Cold:
		return "cold"
	}
	return "normal"
}

// Decision is one judge output.
type Decision struct {
	Time       time.Duration
	Path       string
	Class      DataType
	Action     Action
	TargetRepl int
	// Formula records which of the paper's formulas (1)-(6) triggered the
	// decision (0 for the datanode-overload rule's companion).
	Formula int
	Reason  string
}

// String renders the decision as one aligned report line.
func (d Decision) String() string {
	return fmt.Sprintf("%8.1fs %-8s %-9s %s -> r=%d (formula %d: %s)",
		d.Time.Seconds(), d.Class, d.Action, d.Path, d.TargetRepl, d.Formula, d.Reason)
}

// Typed CEP schemas for the judge's two input streams. Declaring the field
// layout once lets the audit and block-read subscribers emit fixed-slot
// events with no per-event map or boxing allocations.
var (
	accessSchema = cep.NewSchema("Access", "path", "cmd")
	blockSchema  = cep.NewSchema("BlockAccess", "path", "block", "datanode")
)

// Slot indices for the schemas above (order matches NewSchema).
const (
	accessPath = iota
	accessCmd
)

const (
	blockPath = iota
	blockBlock
	blockDatanode
)

// Judge consumes the cluster's audit and block-read streams through the
// CEP engine and classifies files each window.
type Judge struct {
	cluster *hdfs.Cluster
	engine  *cep.Engine
	th      Thresholds

	fileStmt  *cep.Statement
	blockStmt *cep.Statement
	dnStmt    *cep.Statement

	// Per-file state, by intern slot (hdfs.INode.ID), so a rename keeps it
	// and a delete strands it in a slot nothing reuses. idle orders the
	// files by last touch; adopted counts the intern slots it has taken in.
	idle       idleList
	adopted    int
	coolStreak map[int]int // consecutive cooled-looking judge passes; no entry means 0
	visited    int         // files the per-file rules ran on, summed over passes

	// Scratch a pass fills and the next reuses: the window's open counts,
	// its block counts by path (groupOf indexes groups), verdicts, and
	// formula (4)'s per-datanode tallies.
	fileCnt   map[string]float64
	groups    []blockGroup
	groupOf   map[string]int
	hotTarget map[string]hotMark
	top       []topEntry
	onNode    []float64
}

// NewJudge builds a judge over the cluster with the given thresholds. It
// wires the audit log (file opens) and block-read events into the CEP
// engine — the paper's log-parser → CEP pipeline.
func NewJudge(cluster *hdfs.Cluster, th Thresholds) *Judge {
	th.applyDefaults()
	j := &Judge{
		cluster:    cluster,
		th:         th,
		coolStreak: make(map[int]int),
		fileCnt:    make(map[string]float64),
		groupOf:    make(map[string]int),
		hotTarget:  make(map[string]hotMark),
	}
	j.idle.grow(0)
	j.engine = cep.New(func() time.Duration { return cluster.Clock().Now() })
	j.engine.SetTracer(cluster.Tracer())
	compile := func(label string, q cep.Query) *cep.Statement {
		st, err := j.engine.Compile(q)
		if err != nil {
			panic(err) // the three queries below are static
		}
		return st.SetLabel(label)
	}
	// select path, count(*) as cnt from Access.win:time(t_w)
	// where cmd = 'open' group by path
	j.fileStmt = compile("files", cep.Query{From: "Access", Window: th.Window,
		Where: "cmd", Equals: cep.StrVal("open"), GroupBy: []string{"path"}})
	// select path, block, count(*) as cnt from BlockAccess.win:time(t_w)
	// group by path, block
	j.blockStmt = compile("blocks", cep.Query{From: "BlockAccess", Window: th.Window, GroupBy: []string{"path", "block"}})
	// select datanode, count(*) as cnt from BlockAccess.win:time(t_w)
	// group by datanode
	j.dnStmt = compile("datanodes", cep.Query{From: "BlockAccess", Window: th.Window, GroupBy: []string{"datanode"}})

	// The paper's log parser: audit records become CEP events.
	cluster.Audit().Subscribe(func(r auditlog.Record) {
		switch r.Cmd {
		case auditlog.CmdOpen, auditlog.CmdPread:
			// Preads keep a file warm (formula 6 must not encode a file that
			// serves ranged reads) but do NOT enter the formula-(1) open
			// count — the fileStmt query filters cmd='open'.
			if f := cluster.File(r.Src); f != nil && r.Allowed {
				j.adopt()
				j.idle.place(f.ID(), r.Time)
			}
		case auditlog.CmdSetRepl:
			// A decode re-replicates through here: a file that left the
			// idle list while encoded comes back at its last touch.
			if f := cluster.File(r.Src); f != nil && !f.Encoded {
				j.adopt()
				j.idle.relink(f.ID())
			}
		}
		cev := accessSchema.Event(r.Time)
		cev.SetStr(accessPath, r.Src)
		cev.SetStr(accessCmd, string(r.Cmd))
		j.engine.Insert(cev)
	})
	cluster.OnBlockRead(func(ev hdfs.BlockReadEvent) {
		bev := blockSchema.Event(ev.Time)
		bev.SetStr(blockPath, ev.Path)
		bev.SetNum(blockBlock, float64(ev.Block))
		bev.SetNum(blockDatanode, float64(ev.Datanode))
		j.engine.Insert(bev)
	})
	return j
}

// CEP exposes the underlying engine (tests, extensions).
func (j *Judge) CEP() *cep.Engine { return j.engine }

// LastAccess returns when the file at path was last touched — its last
// allowed open or pread, else its creation — and false when no file is
// there. A renamed file keeps its touches; a recreated path starts fresh.
func (j *Judge) LastAccess(path string) (time.Duration, bool) {
	f := j.cluster.File(path)
	if f == nil {
		return 0, false
	}
	if s := f.ID(); s < j.adopted {
		return j.idle.n[s+1].last, true
	}
	return f.CreatedAt, true // not adopted yet, so never touched
}

// adopt takes newly interned files onto the idle list at their creation
// time. Most arrive with an audited create, but a restore into a running
// cluster or a journal replay interns files without one, so the judge
// follows the intern table itself, before every touch and every pass.
func (j *Judge) adopt() {
	table := j.cluster.FileTable()
	if len(table) == j.adopted {
		return
	}
	j.idle.grow(len(table))
	for s := j.adopted; s < len(table); s++ {
		if f := table[s]; f != nil {
			j.idle.place(s, f.CreatedAt)
		}
	}
	j.adopted = len(table)
}

// optimalReplication computes r* for a hot file: enough replicas that the
// per-replica access count falls to τ_M, clamped to [default, min(MaxRepl,
// p+q)].
func (j *Judge) optimalReplication(nd float64) int {
	r := int(math.Ceil(nd / j.th.TauM))
	if r < hdfs.DefaultReplication {
		r = hdfs.DefaultReplication
	}
	max := j.th.MaxReplication
	if nodes := j.cluster.NumDatanodes(); max > nodes {
		max = nodes
	}
	if r > max {
		r = max
	}
	return r
}

// blockGroup is one window path's per-block read counts, in CEP row order,
// and the live file at that path once a visit has resolved it.
type blockGroup struct {
	path   string
	blocks []blockCount
	file   *hdfs.INode
}

// blockCount is one block's reads in the window.
type blockCount struct {
	id  hdfs.BlockID
	cnt float64
}

// hotMark is the strongest hot verdict on a path so far this pass: target
// replication, formula, and the two numbers its Reason quotes if it is kept.
type hotMark struct {
	target, formula int
	a, b            float64
}

// topEntry is a datanode's top contributor: the window path whose blocks
// on that node drew the most reads, and that path's whole-window total.
type topEntry struct {
	path          string
	onNode, total float64
}

// Evaluate runs the paper's judging pass over the current window and
// returns the decisions, deterministically ordered by path. Only three sets
// of files can yield a verdict, and the per-file rules run once on each of
// their files and on no other: (a) the paths with events in the window
// (formulas 1-3, and 6's decode); (b) the files above default replication
// or with a live cooling streak (formula 5, and the streak's reset); (c)
// the unencoded files idle past ColdAge (6's encode), the idle list's
// prefix. Any other file is quiet, at or below default replication, and
// recently touched or encoded: every rule would pass it by.
func (j *Judge) Evaluate() []Decision {
	now := j.cluster.Clock().Now()
	var out []Decision
	j.adopt()

	// Collect window aggregates. EachRow streams typed columns straight off
	// the incremental group state — no Row maps on the hot path.
	clear(j.fileCnt)
	j.fileStmt.EachRow(func(cols []cep.Val) {
		j.fileCnt[cols[0].Str()] = cols[1].Num()
	})
	clear(j.groupOf)
	j.groups = j.groups[:0]
	j.blockStmt.EachRow(func(cols []cep.Val) {
		p := cols[0].Str()
		gi, ok := j.groupOf[p]
		if !ok {
			gi, j.groupOf[p] = len(j.groups), len(j.groups)
			if gi == cap(j.groups) {
				j.groups = append(j.groups, blockGroup{})
			}
			j.groups = j.groups[:gi+1] // a slot past len keeps its blocks' capacity
			g := &j.groups[gi]
			g.path, g.blocks, g.file = p, g.blocks[:0], nil
		}
		g := &j.groups[gi]
		g.blocks = append(g.blocks, blockCount{hdfs.BlockID(cols[1].Num()), cols[2].Num()})
	})
	clear(j.hotTarget)

	// (a) Every opened path, then every path read by block alone. Visit
	// order cannot show: the verdicts are sorted below.
	for path, nd := range j.fileCnt {
		if f := j.cluster.File(path); f != nil {
			out = j.judgeFile(out, f, nd, now)
		}
	}
	for _, g := range j.groups {
		if g.file == nil {
			if f := j.cluster.File(g.path); f != nil {
				out = j.judgeFile(out, f, 0, now)
			}
		}
	}
	// (b) The files above default replication outside the window.
	for _, f := range j.cluster.AboveDefault() {
		if !j.inWindow(f.Path) {
			out = j.judgeFile(out, f, 0, now)
		}
	}
	// (c) The idle list's prefix touched before now-ColdAge. A deleted file
	// leaves it, and so does an encoded one until a touch or a decode.
	table := j.cluster.FileTable()
	cutoff := now - j.th.ColdAge
	for i := j.idle.n[0].next; i != 0 && j.idle.n[i].last < cutoff; {
		next := j.idle.n[i].next
		switch f := table[i-1]; {
		case f == nil || f.Encoded:
			j.idle.unlink(i)
		case !j.inWindow(f.Path) && j.cluster.Replication(f) <= hdfs.DefaultReplication:
			out = j.judgeFile(out, f, 0, now)
		}
		i = next
	}
	// The rest of (b): streaks the files above have not already reset or
	// carried, on files no longer above default or no longer there.
	for s := range j.coolStreak {
		switch f := table[s]; {
		case f == nil:
			delete(j.coolStreak, s)
		case !j.inWindow(f.Path) && j.cluster.Replication(f) <= hdfs.DefaultReplication:
			out = j.judgeFile(out, f, 0, now)
		}
	}

	// Formula (4): overloaded datanodes — boost "the data D that contributes
	// the largest access to DN". Every node's top contributor comes from one
	// walk of the window, made when the first node over τ_DN shows up.
	var top []topEntry
	j.dnStmt.EachRow(func(cols []cep.Val) {
		cnt := cols[1].Num()
		if cnt <= j.th.TauDN {
			return
		}
		if top == nil {
			top = j.topContributors()
		}
		dn := cols[0].Num()
		if t := top[int(dn)]; t.path != "" {
			j.markHot(t.path, j.cluster.ReplicationOf(t.path), t.total, 4, dn, cnt)
		}
	})

	for path, h := range j.hotTarget {
		out = append(out, Decision{
			Time: now, Path: path, Class: Hot, Action: ActionIncrease,
			TargetRepl: h.target, Formula: h.formula, Reason: j.hotReason(h),
		})
	}
	// A path has at most one per-file verdict (formula 5 or 6) and one hot
	// verdict (1-4), so (path, formula) is a total order.
	slices.SortFunc(out, func(a, b Decision) int {
		if c := strings.Compare(a.Path, b.Path); c != 0 {
			return c
		}
		return a.Formula - b.Formula
	})
	return out
}

// inWindow reports whether path has an open or a block read in the window
// Evaluate collected.
func (j *Judge) inWindow(path string) bool {
	if _, ok := j.fileCnt[path]; ok {
		return true
	}
	_, ok := j.groupOf[path]
	return ok
}

// judgeFile runs the per-file rules on one live file whose window open
// count is nd, appending its verdicts to out; hot verdicts (formulas 1-3)
// collect in j.hotTarget instead.
func (j *Judge) judgeFile(out []Decision, f *hdfs.INode, nd float64, now time.Duration) []Decision {
	j.visited++
	path := f.Path
	var g *blockGroup
	if gi, ok := j.groupOf[path]; ok {
		g = &j.groups[gi]
		g.file = f
	}
	cur := j.cluster.Replication(f)
	if cur <= 0 {
		return out // a file with no block yet
	}
	r := float64(cur)

	if f.Encoded {
		// Warmed-up encoded file: restore replication immediately.
		if nd/r >= j.th.TauD {
			out = append(out, Decision{
				Time: now, Path: path, Class: Hot, Action: ActionDecode,
				TargetRepl: hdfs.DefaultReplication, Formula: 6,
				Reason: fmt.Sprintf("encoded file accessed %.0f times in window", nd),
			})
		}
		return out
	}

	// Formula (1): mean per-replica file accesses.
	if nd/r > j.th.TauM {
		j.markHot(path, cur, nd, 1, nd/r, 0)
	}
	// Formulas (2) and (3): per-block intensity.
	if g != nil {
		nBlocks := len(f.Blocks)
		intense := 0
		var maxB, totalB float64
		for _, b := range g.blocks {
			totalB += b.cnt
			if b.cnt/r > j.th.MM && b.cnt > maxB {
				maxB = b.cnt
			}
			if b.cnt/r > j.th.Mm {
				intense++
			}
		}
		if maxB > 0 {
			j.markHot(path, cur, maxB, 2, maxB/r, 0)
		}
		if nBlocks > 0 && float64(intense)/float64(nBlocks) > j.th.Epsilon {
			// Demand signal: average accesses per block (file-level
			// opens are zero when clients read blocks directly).
			avg := totalB / float64(nBlocks)
			if nd > avg {
				avg = nd
			}
			j.markHot(path, cur, avg, 3, float64(intense), float64(nBlocks))
		}
	}

	// Formula (5): cooled — extra replicas no longer earning their
	// keep. Hysteresis: the file must look cooled for CooldownWindows
	// consecutive passes, or marginal demand thrashes replicas.
	s := f.ID()
	if cur > hdfs.DefaultReplication && nd/r < j.th.TauD {
		if streak := j.coolStreak[s] + 1; streak < j.th.CooldownWindows {
			j.coolStreak[s] = streak
		} else {
			delete(j.coolStreak, s)
			out = append(out, Decision{
				Time: now, Path: path, Class: Cooled, Action: ActionDecrease,
				TargetRepl: hdfs.DefaultReplication, Formula: 5,
				Reason: fmt.Sprintf("N_d/r = %.2f < τ_d %.1f", nd/r, j.th.TauD),
			})
		}
		return out
	}
	delete(j.coolStreak, s)

	// Formula (6): cold — quiet and old.
	last := j.idle.n[s+1].last
	if nd/r < j.th.TauSmall && now-last > j.th.ColdAge && cur <= hdfs.DefaultReplication {
		out = append(out, Decision{
			Time: now, Path: path, Class: Cold, Action: ActionEncode,
			TargetRepl: 1, Formula: 6,
			Reason: fmt.Sprintf("idle %.0f min", (now - last).Minutes()),
		})
	}
	return out
}

// markHot records a hot verdict on path unless one asking for at least as
// many replicas is already there: the first verdict asking for the most
// wins (no entry: 0).
func (j *Judge) markHot(path string, cur int, nd float64, formula int, a, b float64) {
	if target := j.optimalReplication(nd); target > cur && target > j.hotTarget[path].target {
		j.hotTarget[path] = hotMark{target, formula, a, b}
	}
}

// hotReason formats the Reason of a kept hot verdict.
func (j *Judge) hotReason(h hotMark) string {
	switch h.formula {
	case 1:
		return fmt.Sprintf("N_d/r = %.1f > τ_M %.0f", h.a, j.th.TauM)
	case 2:
		return fmt.Sprintf("block N_b/r = %.1f > M_M %.0f", h.a, j.th.MM)
	case 3:
		return fmt.Sprintf("%.0f/%.0f blocks above M_m", h.a, h.b)
	}
	return fmt.Sprintf("datanode %.0f served %.0f block reads > τ_DN %.0f", h.a, h.b, j.th.TauDN)
}

// topContributors returns, indexed by datanode, the live unencoded window
// path with the strictly largest read count on blocks that node holds, the
// lexicographically smallest such path on a tie. One walk of the window's
// block groups in CEP row order; the slice is reused by the next call.
func (j *Judge) topContributors() []topEntry {
	if n := j.cluster.NumDatanodes(); len(j.top) != n {
		j.top = make([]topEntry, n)
		j.onNode = make([]float64, n) // the current path's count per node
	}
	clear(j.top)
	top, onNode := j.top, j.onNode
	for _, g := range j.groups {
		f := g.file
		if f == nil {
			f = j.cluster.File(g.path) // a group no visit resolved
		}
		if f == nil || f.Encoded {
			continue
		}
		var total float64
		for _, b := range g.blocks {
			total += b.cnt
			for _, dn := range j.cluster.Replicas(b.id) {
				onNode[dn] += b.cnt
			}
		}
		// Settle and zero each node touched; one met twice is zero by then,
		// and a zero never wins (every kept entry counts at least one read).
		for _, b := range g.blocks {
			for _, dn := range j.cluster.Replicas(b.id) {
				if c, t := onNode[dn], top[dn]; c > t.onNode || (c == t.onNode && c > 0 && g.path < t.path) {
					top[dn] = topEntry{g.path, c, total}
				}
				onNode[dn] = 0
			}
		}
	}
	return top
}
