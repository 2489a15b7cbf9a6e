package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"erms/internal/auditlog"
	"erms/internal/cep"
	"erms/internal/hdfs"
	"erms/internal/sim"
	"erms/internal/topology"
)

// visitWorld is one cluster with the judge under test and the reference
// judge attached, both fed by the cluster's audit and block-read streams.
type visitWorld struct {
	e   *sim.Engine
	c   *hdfs.Cluster
	j   *Judge
	ref *refJudge
}

func newVisitWorld(nodes int, th Thresholds) *visitWorld {
	e := sim.NewEngine()
	c := hdfs.New(e, hdfs.Config{Topology: topology.New(topology.Config{Racks: 3, NodeCount: nodes})})
	return &visitWorld{e: e, c: c, j: NewJudge(c, th), ref: newRefJudge(c, th)}
}

// opens and blockReads inject window events into both judges' engines only:
// demand the audit log never showed, so no file is touched by them.
func (w *visitWorld) opens(path string, n int) {
	for i := 0; i < n; i++ {
		w.inject(openEvent(w.e.Now(), path))
	}
}

func (w *visitWorld) blockReads(path string, bid hdfs.BlockID, dn hdfs.DatanodeID, n int) {
	for i := 0; i < n; i++ {
		w.inject(blockEvent(w.e.Now(), path, bid, dn))
	}
}

func (w *visitWorld) inject(ev cep.Event) {
	w.j.engine.Insert(ev)
	w.ref.engine.Insert(ev)
}

// TestEvaluateVisitSetsMatchReference: on 25 seeded histories of 24 passes
// each, the judge that visits only the window, the above-default and
// streaking files and the idle list's prefix must decide DeepEqual to
// refEvaluate's full sweep, and keep an equal coolStreak, on every pass. The
// history acts on a random two thirds of the verdicts through the cluster
// (replicate, shrink, encode, decode) and adds:
//   - files created at many instants, so ColdAge is crossed at different
//     passes;
//   - encode, idle passes (the file leaves the idle list), re-warming by
//     opens and by demand the audit log never showed, decode, and cooling
//     again by formula (5) or (6);
//   - replication changed outside the judge, up and down;
//   - a node killed, restarted a pass later and its lost copies restored;
//   - deletes and renames of cold, elevated and streaking files;
//   - a checkpoint restored into a pristine cluster whose judges are
//     already attached, as System.Restore does, after which the history
//     continues there.
func TestEvaluateVisitSetsMatchReference(t *testing.T) {
	th := Thresholds{ColdAge: 40 * time.Minute}
	const passes = 24
	fired := map[int]int{}
	coldPasses := map[int]bool{}
	encodes, decodes, recooled, parked := 0, 0, 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 14 + rng.Intn(8)
		w := newVisitWorld(nodes, th)
		def := hdfs.DefaultReplication
		created := 0
		create := func() {
			repl := def
			if rng.Intn(4) == 0 {
				repl = def + 1 + rng.Intn(3)
			}
			path := fmt.Sprintf("/%c/f%03d", "amz"[rng.Intn(3)], created)
			created++
			if _, err := w.c.CreateFile(path, float64(1+rng.Intn(3))*64*mb, repl, -1); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for i := 0; i < 30; i++ {
			create()
		}
		live := func() []string { return append([]string(nil), w.c.FilePaths()...) }
		pick := func(pred func(string) bool) string {
			var match []string
			for _, p := range live() {
				if pred(p) {
					match = append(match, p)
				}
			}
			if len(match) == 0 {
				return ""
			}
			return match[rng.Intn(len(match))]
		}
		inFlight := map[string]bool{}
		decoded := map[string]bool{}
		killed := hdfs.DatanodeID(-1)
		restoreAt := 8 + rng.Intn(10)

		for pass := 1; pass <= passes; pass++ {
			for _, path := range live() {
				f := w.c.File(path)
				client := topology.NodeID(rng.Intn(nodes))
				switch x := rng.Intn(24); {
				case x < 4:
					w.opens(path, 1+rng.Intn(6))
				case x == 4:
					w.opens(path, 30+rng.Intn(40))
				case x == 5:
					bid := f.Blocks[rng.Intn(len(f.Blocks))]
					if reps := w.c.Replicas(bid); len(reps) > 0 {
						w.blockReads(path, bid, reps[0], 50+rng.Intn(10))
					}
				case x == 6:
					for _, bid := range f.Blocks {
						if reps := w.c.Replicas(bid); len(reps) > 0 {
							w.blockReads(path, bid, reps[0], 20+rng.Intn(10))
						}
					}
				case x == 7:
					w.c.ReadFile(client, path, nil)
				case x == 8:
					w.c.ReadRange(client, path, 0, mb, nil)
				}
			}

			got, want := w.j.Evaluate(), refEvaluate(w.ref)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d pass %d: the visit sets decided\n%v\nthe full sweep decided\n%v", seed, pass, got, want)
			}
			if s := streaksByPath(t, w.j); !reflect.DeepEqual(s, w.ref.coolStreak) {
				t.Fatalf("seed %d pass %d: coolStreak %v, reference %v", seed, pass, s, w.ref.coolStreak)
			}
			for s, f := range w.c.FileTable() {
				if f != nil && f.Encoded && s < w.j.adopted && w.j.idle.n[s+1].prev < 0 {
					parked++
				}
			}

			// Act on about two thirds of the verdicts, as the manager would.
			for _, d := range got {
				fired[d.Formula]++
				if d.Action == ActionEncode {
					coldPasses[pass] = true
				}
				if decoded[d.Path] && (d.Action == ActionDecrease || d.Action == ActionEncode) {
					recooled++
				}
				path := d.Path
				if inFlight[path] || rng.Intn(3) == 0 {
					continue
				}
				inFlight[path] = true
				done := func(error) { delete(inFlight, path) }
				switch d.Action {
				case ActionIncrease, ActionDecrease:
					w.c.SetReplication(path, d.TargetRepl, hdfs.WholeAtOnce, done)
				case ActionEncode:
					c := w.c
					c.EncodeFile(path, min(len(c.File(path).Blocks), 10), 2, func(err error) {
						if err != nil {
							_ = c.CancelEncoding(path)
						} else {
							encodes++
						}
						done(err)
					})
				case ActionDecode:
					decoded[path] = true
					decodes++
					w.c.DecodeFile(path, d.TargetRepl, done)
				}
			}

			// Namespace churn over each kind of file formula (5) and (6)
			// keep state for.
			cold := func(p string) bool {
				at, _ := w.j.LastAccess(p)
				return w.e.Now()-at > th.ColdAge
			}
			elevated := func(p string) bool { return w.c.ReplicationOf(p) > def }
			streaking := func(p string) bool { _, ok := w.ref.coolStreak[p]; return ok }
			for _, kind := range []func(string) bool{cold, elevated, streaking} {
				p := pick(func(p string) bool { return kind(p) && !inFlight[p] })
				if p == "" {
					continue
				}
				switch rng.Intn(3) {
				case 0:
					if err := w.c.DeleteFile(p); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				case 1:
					dst := fmt.Sprintf("/%c/r%03d", "amz"[rng.Intn(3)], created)
					created++
					if err := w.c.Rename(p, dst); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
			for i := rng.Intn(3); i > 0; i-- {
				create()
			}
			// Replication changed outside the judge.
			if p := pick(func(p string) bool { return !inFlight[p] }); p != "" && rng.Intn(2) == 0 {
				w.c.SetReplication(p, def-1+rng.Intn(4), hdfs.WholeAtOnce, nil)
			}
			// A node killed, and restarted a pass later with its lost copies
			// re-replicated.
			switch {
			case killed >= 0:
				w.c.Restart(killed)
				killed = -1
				for _, p := range live() {
					if f := w.c.File(p); !inFlight[p] && !f.Encoded && w.c.Replication(f) < f.TargetRepl {
						w.c.SetReplication(p, f.TargetRepl, hdfs.WholeAtOnce, nil)
					}
				}
			case rng.Intn(4) == 0:
				killed = hdfs.DatanodeID(rng.Intn(nodes))
				w.c.Kill(killed)
			}

			if pass == restoreAt {
				var ckpt bytes.Buffer
				if err := w.c.WriteCheckpoint(&ckpt); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				w = newVisitWorld(nodes, th)
				if err := w.c.RestoreCheckpoint(&ckpt); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				inFlight = map[string]bool{} // the old cluster's jobs died with it
			}
			w.e.RunUntil(w.e.Now() + 6*time.Minute) // the window expires
		}
	}
	t.Logf("verdicts by formula %v; %d passes with a cold verdict; %d encodes, %d decodes, %d re-cooled; %d parked file-passes",
		fired, len(coldPasses), encodes, decodes, recooled, parked)
	for formula := 1; formula <= 6; formula++ {
		if fired[formula] == 0 {
			t.Errorf("no formula-(%d) decision on any seed; the case checks less than it says", formula)
		}
	}
	if len(coldPasses) < 3 || encodes == 0 || decodes == 0 || recooled == 0 || parked == 0 {
		t.Errorf("passes with a cold verdict %d, encodes %d, decodes %d, re-cooled %d, parked file-passes %d; each must occur",
			len(coldPasses), encodes, decodes, recooled, parked)
	}
}

// TestJudgeVisitsOnlyCandidates is the count gate on the visit sets: the
// same window over 10,000 and over 100,000 otherwise idle files costs the
// same number of per-file visits per pass, and that number is exactly
// |window ∪ above-default ∪ streaks ∪ idle past t|.
func TestJudgeVisitsOnlyCandidates(t *testing.T) {
	var perPass [2][]int
	for k, idle := range []int{10000, 100000} {
		e := sim.NewEngine()
		c := hdfs.New(e, hdfs.Config{Topology: topology.New(topology.Config{})})
		j := NewJudge(c, Thresholds{})
		create := func(path string, repl int) {
			if _, err := c.CreateFile(path, mb, repl, -1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			create(fmt.Sprintf("/old/f%02d", i), 0) // idle past t by the first pass
		}
		for i := 0; i < 4; i++ {
			c.File(fmt.Sprintf("/old/f%02d", i)).Encoded = true // encoded: idle, but no candidate
		}
		for i := 0; i < 20; i++ {
			create(fmt.Sprintf("/up/f%02d", i), 5) // above default
		}
		e.RunUntil(j.th.ColdAge + time.Minute)
		for i := 0; i < idle; i++ {
			create(fmt.Sprintf("/idle/f%06d", i), 0)
		}
		// The window: opens on some idle, old and elevated files, block
		// reads on others.
		for i := 0; i < 300; i++ {
			p := fmt.Sprintf("/idle/f%06d", i*7)
			if i%3 == 0 {
				f := c.File(p)
				j.engine.Insert(blockEvent(e.Now(), p, f.Blocks[0], c.Replicas(f.Blocks[0])[0]))
			} else {
				j.engine.Insert(openEvent(e.Now(), p))
			}
		}
		for i := 0; i < 10; i += 3 {
			j.engine.Insert(openEvent(e.Now(), fmt.Sprintf("/old/f%02d", i)))
			j.engine.Insert(openEvent(e.Now(), fmt.Sprintf("/up/f%02d", i)))
		}

		for pass := 0; pass < 3; pass++ {
			want := map[int]bool{}
			now := e.Now()
			j.fileStmt.EachRow(func(cols []cep.Val) {
				if f := c.File(cols[0].Str()); f != nil {
					want[f.ID()] = true
				}
			})
			j.blockStmt.EachRow(func(cols []cep.Val) {
				if f := c.File(cols[0].Str()); f != nil {
					want[f.ID()] = true
				}
			})
			for s := range j.coolStreak {
				want[s] = true
			}
			for s, f := range c.FileTable() {
				at, _ := j.LastAccess(f.Path)
				if c.Replication(f) > hdfs.DefaultReplication || (!f.Encoded && now-at > j.th.ColdAge) {
					want[s] = true
				}
			}
			before := j.visited
			j.Evaluate()
			if got := j.visited - before; got != len(want) {
				t.Fatalf("%d idle files, pass %d: %d files visited, |window ∪ above-default ∪ streaks ∪ idle past t| = %d",
					idle, pass, got, len(want))
			}
			perPass[k] = append(perPass[k], len(want))
			if pass == 0 {
				// Back to the default outside the judge: a streak on a file
				// no longer above default, which only the streak set reaches.
				c.SetReplication("/up/f19", 3, hdfs.WholeAtOnce, nil)
			}
		}
	}
	if !reflect.DeepEqual(perPass[0], perPass[1]) {
		t.Fatalf("visits per pass over 10,000 idle files %v, over 100,000 %v", perPass[0], perPass[1])
	}
}

func openEvent(at time.Duration, path string) cep.Event {
	ev := accessSchema.Event(at)
	ev.SetStr(accessPath, path)
	ev.SetStr(accessCmd, string(auditlog.CmdOpen))
	return ev
}

func blockEvent(at time.Duration, path string, bid hdfs.BlockID, dn hdfs.DatanodeID) cep.Event {
	ev := blockSchema.Event(at)
	ev.SetStr(blockPath, path)
	ev.SetNum(blockBlock, float64(bid))
	ev.SetNum(blockDatanode, float64(dn))
	return ev
}
