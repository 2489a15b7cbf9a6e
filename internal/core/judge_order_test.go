package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/cep"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// refJudge is the judge as it stood while it swept the whole namespace: its
// per-file state is the path-keyed lastAccess and coolStreak maps its own
// audit subscriber keeps, renames migrating them and deletes dropping them.
// The embedded Judge feeds the CEP statements and lends the pass scratch
// and the formula helpers; its slot-keyed state goes unread.
type refJudge struct {
	*Judge
	lastAccess map[string]time.Duration
	coolStreak map[string]int
}

func newRefJudge(c *hdfs.Cluster, th Thresholds) *refJudge {
	j := &refJudge{
		Judge:      NewJudge(c, th),
		lastAccess: make(map[string]time.Duration),
		coolStreak: make(map[string]int),
	}
	c.Audit().Subscribe(func(r auditlog.Record) {
		if (r.Cmd == auditlog.CmdOpen || r.Cmd == auditlog.CmdPread) && r.Allowed {
			j.lastAccess[r.Src] = r.Time
		}
		switch r.Cmd {
		case auditlog.CmdRename:
			if t, ok := j.lastAccess[r.Src]; ok {
				j.lastAccess[r.Dst] = t
				delete(j.lastAccess, r.Src)
			}
			if s, ok := j.coolStreak[r.Src]; ok {
				j.coolStreak[r.Dst] = s
				delete(j.coolStreak, r.Src)
			}
		case auditlog.CmdDelete:
			delete(j.lastAccess, r.Src)
			delete(j.coolStreak, r.Src)
		}
	})
	return j
}

// streaksByPath is j's slot-keyed coolStreak keyed by path, to compare with
// refJudge's; a deleted file's entry, which the next pass drops, fails it.
func streaksByPath(t *testing.T, j *Judge) map[string]int {
	t.Helper()
	out := make(map[string]int, len(j.coolStreak))
	for s, n := range j.coolStreak {
		f := j.cluster.FileTable()[s]
		if f == nil {
			t.Fatalf("coolStreak holds deleted slot %d after a pass", s)
		}
		out[f.Path] = n
	}
	return out
}

// refEvaluate is Judge.Evaluate as it stood while the per-file sweep walked
// the sorted, memoized Cluster.FilePaths() and looked every path up again —
// kept verbatim as the oracle for the pass that visits only the files that
// can yield a verdict.
func refEvaluate(j *refJudge) []Decision {
	now := j.cluster.Clock().Now()
	def := hdfs.DefaultReplication
	var out []Decision

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
			j.groups = j.groups[:gi+1]
			j.groups[gi].path, j.groups[gi].blocks = p, j.groups[gi].blocks[:0]
		}
		g := &j.groups[gi]
		g.blocks = append(g.blocks, blockCount{hdfs.BlockID(cols[1].Num()), cols[2].Num()})
	})

	clear(j.hotTarget)
	markHot := func(path string, cur int, nd float64, formula int, a, b float64) {
		if target := j.optimalReplication(nd); target > cur && target > j.hotTarget[path].target {
			j.hotTarget[path] = hotMark{target, formula, a, b}
		}
	}

	for _, path := range j.cluster.FilePaths() {
		f := j.cluster.File(path)
		cur := j.cluster.Replication(f)
		if cur <= 0 {
			continue
		}
		r := float64(cur)
		nd := j.fileCnt[path]

		if f.Encoded {
			if nd/r >= j.th.TauD {
				out = append(out, Decision{
					Time: now, Path: path, Class: Hot, Action: ActionDecode,
					TargetRepl: def, Formula: 6,
					Reason: fmt.Sprintf("encoded file accessed %.0f times in window", nd),
				})
			}
			continue
		}

		if nd/r > j.th.TauM {
			markHot(path, cur, nd, 1, nd/r, 0)
		}
		if gi, ok := j.groupOf[path]; ok {
			nBlocks := len(f.Blocks)
			intense := 0
			var maxB, totalB float64
			for _, b := range j.groups[gi].blocks {
				totalB += b.cnt
				if b.cnt/r > j.th.MM && b.cnt > maxB {
					maxB = b.cnt
				}
				if b.cnt/r > j.th.Mm {
					intense++
				}
			}
			if maxB > 0 {
				markHot(path, cur, maxB, 2, maxB/r, 0)
			}
			if nBlocks > 0 && float64(intense)/float64(nBlocks) > j.th.Epsilon {
				avg := totalB / float64(nBlocks)
				if nd > avg {
					avg = nd
				}
				markHot(path, cur, avg, 3, float64(intense), float64(nBlocks))
			}
		}

		if cur > def && nd/r < j.th.TauD {
			if streak := j.coolStreak[path] + 1; streak < j.th.CooldownWindows {
				j.coolStreak[path] = streak
			} else {
				delete(j.coolStreak, path)
				out = append(out, Decision{
					Time: now, Path: path, Class: Cooled, Action: ActionDecrease,
					TargetRepl: def, Formula: 5,
					Reason: fmt.Sprintf("N_d/r = %.2f < τ_d %.1f", nd/r, j.th.TauD),
				})
			}
			continue
		}
		delete(j.coolStreak, path)

		last, seen := j.lastAccess[path]
		if !seen {
			last = f.CreatedAt
		}
		if nd/r < j.th.TauSmall && now-last > j.th.ColdAge && cur <= def {
			out = append(out, Decision{
				Time: now, Path: path, Class: Cold, Action: ActionEncode,
				TargetRepl: 1, Formula: 6,
				Reason: fmt.Sprintf("idle %.0f min", (now - last).Minutes()),
			})
		}
	}

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
			markHot(t.path, j.cluster.ReplicationOf(t.path), t.total, 4, dn, cnt)
		}
	})

	for path, h := range j.hotTarget {
		out = append(out, Decision{
			Time: now, Path: path, Class: Hot, Action: ActionIncrease,
			TargetRepl: h.target, Formula: h.formula, Reason: j.hotReason(h),
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Path != out[b].Path {
			return out[a].Path < out[b].Path
		}
		return out[a].Formula < out[b].Formula
	})
	return out
}

// TestEvaluateVisitOrderIrrelevant: two judges fed the same events on one
// cluster, one visiting only the files that can yield a verdict and one
// running refEvaluate's sorted-path sweep, must reach DeepEqual decisions
// and equal coolStreak maps on three consecutive passes, on 25 seeded
// clusters whose intern order differs from path order every way it can —
// deleted slots, files renamed ahead of and behind their neighbours, files
// created late with early names — and that hold every kind of file the
// per-file rules tell apart: encoded (idle and re-warmed), elevated and
// cooling, cold, hot by each of formulas (1)-(4).
func TestEvaluateVisitOrderIrrelevant(t *testing.T) {
	fired := map[int]int{}
	decodes, gaps, streaks := 0, 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := newJudgeFix(t, 12+rng.Intn(13))
		ref := newRefJudge(f.c, Thresholds{})
		refFix := &judgeFix{t: t, e: f.e, c: f.c, j: ref.Judge}
		both := func(inject func(j *judgeFix)) {
			inject(f)
			inject(refFix)
		}
		var live []string
		create := func(path string) {
			repl := 3
			if rng.Intn(3) == 0 {
				repl = 4 + rng.Intn(3) // elevated: formula (5) applies
			}
			f.create(path, 1+rng.Intn(4), repl)
			live = append(live, path)
		}
		churn := func(round int) {
			for i, n := 0, 4+rng.Intn(6); i < n; i++ {
				k := rng.Intn(len(live))
				switch rng.Intn(3) {
				case 0:
					if err := f.c.DeleteFile(live[k]); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				case 1:
					dst := fmt.Sprintf("/%c/r%d-%03d", "amz"[rng.Intn(3)], round, i)
					if err := f.c.Rename(live[k], dst); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					live[k] = dst
				default:
					create(fmt.Sprintf("/%c/c%d-%03d", "amz"[rng.Intn(3)], round, i))
				}
			}
		}
		for i, n := 0, 40+rng.Intn(40); i < n; i++ {
			create(fmt.Sprintf("/m/f%03d", i))
		}
		for _, path := range live {
			if rng.Intn(6) == 0 {
				f.c.File(path).Encoded = true // stand in for a completed EncodeFile
			}
		}
		churn(0)
		f.e.RunUntil(2*time.Hour + 30*time.Minute) // past ColdAge for whatever stays idle

		for pass := 1; pass <= 3; pass++ {
			// A window of traffic: most files idle, some opened a little
			// (keeps an elevated file from cooling, re-warms an encoded one),
			// a few hammered by file, by block and by datanode.
			for _, path := range live {
				inode := f.c.File(path)
				switch x := rng.Intn(20); {
				case x < 4:
					n := 1 + rng.Intn(8)
					both(func(j *judgeFix) { j.opens(path, n) })
				case x == 4:
					n := 30 + rng.Intn(40)
					both(func(j *judgeFix) { j.opens(path, n) })
				case x == 5 && len(inode.Blocks) > 0:
					bid := inode.Blocks[rng.Intn(len(inode.Blocks))]
					dn, n := f.c.Replicas(bid)[0], 50+rng.Intn(10)
					both(func(j *judgeFix) { j.blockReads(path, bid, dn, n) })
				case x == 6:
					for _, bid := range inode.Blocks {
						dn, n := f.c.Replicas(bid)[0], 20+rng.Intn(10)
						both(func(j *judgeFix) { j.blockReads(path, bid, dn, n) })
					}
				}
			}
			got, want := f.j.Evaluate(), refEvaluate(ref)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d pass %d: the visit sets decided\n%v\nsorted-path sweep decided\n%v", seed, pass, got, want)
			}
			if s := streaksByPath(t, f.j); !reflect.DeepEqual(s, ref.coolStreak) {
				t.Fatalf("seed %d pass %d: coolStreak %v, reference %v", seed, pass, s, ref.coolStreak)
			}
			for _, d := range got {
				fired[d.Formula]++
				if d.Action == ActionDecode {
					decodes++
				}
			}
			streaks += len(f.j.coolStreak)
			for _, slot := range f.c.FileTable() {
				if slot == nil {
					gaps++
				}
			}
			f.e.RunUntil(f.e.Now() + 6*time.Minute) // the window expires
			churn(pass)
		}
	}
	for formula := 1; formula <= 6; formula++ {
		if fired[formula] == 0 {
			t.Errorf("no formula-(%d) decision on any seed; the case checks less than it says", formula)
		}
	}
	if decodes == 0 || gaps == 0 || streaks == 0 {
		t.Errorf("decodes=%d deleted slots=%d live streaks=%d; each must occur", decodes, gaps, streaks)
	}
}

// BenchmarkJudgePassAfterChurn is the judge pass of a namenode that keeps
// taking metadata writes: one create and one delete land between passes on
// a 100 000-file namespace, the case the FilePaths memo never covered (any
// mutation dropped it, and the next pass re-sorted every path).
func BenchmarkJudgePassAfterChurn(b *testing.B) {
	const nodes, nFiles = 102, 100000
	e := sim.NewEngine()
	topo := topology.New(topology.Config{Racks: 17, NodeCount: nodes})
	h := hdfs.New(e, hdfs.Config{Topology: topo})
	m := New(h, Config{JudgePeriod: time.Hour}) // drive judging manually
	for i := 0; i < nFiles; i++ {
		if _, err := h.CreateFile(fmt.Sprintf("/churn/f%06d", i), mb, 0, topology.NodeID(i%nodes)); err != nil {
			b.Fatal(err)
		}
	}
	j := m.Judge()
	j.Evaluate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.CreateFile(fmt.Sprintf("/churn/n%06d", i), mb, 0, topology.NodeID(i%nodes)); err != nil {
			b.Fatal(err)
		}
		victim := fmt.Sprintf("/churn/f%06d", i)
		if i >= nFiles {
			victim = fmt.Sprintf("/churn/n%06d", i-nFiles)
		}
		if err := h.DeleteFile(victim); err != nil {
			b.Fatal(err)
		}
		j.Evaluate()
	}
}
