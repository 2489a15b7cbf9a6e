package hdfs

import (
	"fmt"
	"slices"
	"time"

	"erms/internal/auditlog"
	"erms/internal/netsim"
	"erms/internal/topology"
)

// WriteResult summarizes a completed pipelined file write.
type WriteResult struct {
	Path   string
	Client topology.NodeID
	Bytes  float64
	Start  time.Duration
	End    time.Duration
	Err    error
}

// Duration returns the virtual time the write took.
func (w *WriteResult) Duration() time.Duration { return w.End - w.Start }

// ThroughputMBps returns the achieved write throughput in MB/s.
func (w *WriteResult) ThroughputMBps() float64 {
	d := w.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return w.Bytes / topology.MB / d
}

// WriteFile creates a file by streaming its blocks through an HDFS write
// pipeline: each block's bytes flow client → replica1 → replica2 → … with
// every hop's NIC and disk on the path, so a write runs at the speed of
// the pipeline's slowest link and cross-rack topology costs what it
// should. Blocks are written sequentially, as DFSOutputStream does.
// Unlike CreateFile (which materializes data instantly for experiment
// setup), WriteFile occupies the cluster for the transfer's real duration.
func (c *Cluster) WriteFile(client topology.NodeID, path string, size float64, repl int, done func(*WriteResult)) {
	res := &WriteResult{Path: path, Client: client, Start: c.clock.Now()}
	fail := func(err error) {
		res.Err = err
		res.End = c.clock.Now()
		if done != nil {
			c.clock.Schedule(0, func() { done(res) })
		}
	}
	if err := c.writable(); err != nil {
		fail(err)
		return
	}
	if err := c.creatable(path, size); err != nil {
		fail(err)
		return
	}
	if repl <= 0 {
		repl = c.cfg.DefaultReplication
	}
	c.audit.Append(auditlog.Record{
		Time: c.clock.Now(), Allowed: true, UGI: "hadoop",
		IP: c.clientIP(client), Cmd: auditlog.CmdCreate, Src: path,
	})
	f := &INode{
		Path:       path,
		Size:       size,
		TargetRepl: repl,
		CreatedAt:  c.clock.Now(),
	}
	c.registerFile(f)
	nBlocks := blockCount(size, c.cfg.BlockSize)
	var writeBlock func(i int)
	writeBlock = func(i int) {
		if i >= nBlocks {
			res.Bytes = size
			res.End = c.clock.Now()
			if done != nil {
				done(res)
			}
			return
		}
		id := c.addBlock(f, int32(i))
		b := c.view(id)
		// nil dst: the pipeline callback below keeps targets past placement.
		targets := c.placement.ChooseTargets(nil, c, b, repl, DatanodeID(client), nil)
		if len(targets) == 0 {
			fail(fmt.Errorf("hdfs: no targets for block %d of %q", id, path))
			return
		}
		path2 := c.pipelinePath(client, targets)
		c.fabric.StartFlow(path2, b.Size, 0, func(*netsim.Flow) {
			for _, t := range targets {
				if !c.datanodes[t].Down() {
					c.attachReplica(id, t)
				}
			}
			if len(c.replicas[id]) == 0 {
				fail(fmt.Errorf("hdfs: every pipeline node died writing block %d", id))
				return
			}
			writeBlock(i + 1)
		})
	}
	writeBlock(0)
}

// pipelinePath assembles the ordered, de-duplicated link set a pipelined
// block write crosses: the client's egress (when the writer is a cluster
// node), then for each pipeline stage the inter-node network hops, the
// receiver's ingress NIC and its disk, and the forwarder's egress NIC.
// External writers (client < 0) enter through the first target's rack
// downlink.
func (c *Cluster) pipelinePath(client topology.NodeID, targets []DatanodeID) []topology.LinkID {
	var links []topology.LinkID
	add := func(ids ...topology.LinkID) {
		for _, id := range ids {
			if !slices.Contains(links, id) {
				links = append(links, id)
			}
		}
	}
	prev := client
	for _, t := range targets {
		tn := topology.NodeID(t)
		node := c.topo.Node(tn)
		switch {
		case prev < 0:
			// External entry: core → rack → node.
			add(c.topo.RackDownlink(node.Rack), node.NICIn)
		case prev == tn:
			// Local write: disk only (added below).
		default:
			pn := c.topo.Node(prev)
			add(pn.NICOut)
			if pn.Rack != node.Rack {
				add(c.topo.RackUplink(pn.Rack), c.topo.RackDownlink(node.Rack))
			}
			add(node.NICIn)
		}
		add(node.Disk)
		prev = tn
	}
	return links
}
