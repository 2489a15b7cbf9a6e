// Package topology models the physical cluster: racks, nodes, and the
// capacity-limited resources (disk streams, NICs, rack uplinks) that reads
// and replication traffic contend for.
//
// The model matches the paper's testbed shape: commodity nodes with a single
// SATA disk and a Gigabit NIC, grouped into racks whose uplinks to the core
// are oversubscribed. Each resource becomes a link in the netsim fabric; a
// transfer's path is the ordered set of links it crosses.
package topology

import "fmt"

// LinkID indexes a capacity-limited resource in the fabric.
type LinkID int

// NodeID identifies a machine.
type NodeID int

// LinkKind labels what a link models, for debugging and reports.
type LinkKind int

const (
	// LinkDisk is a node's disk streaming bandwidth (shared by reads and writes).
	LinkDisk LinkKind = iota
	// LinkNICOut is a node's egress network bandwidth.
	LinkNICOut
	// LinkNICIn is a node's ingress network bandwidth.
	LinkNICIn
	// LinkRackUp is a rack's uplink toward the core switch.
	LinkRackUp
	// LinkRackDown is a rack's downlink from the core switch.
	LinkRackDown
)

func (k LinkKind) String() string {
	switch k {
	case LinkDisk:
		return "disk"
	case LinkNICOut:
		return "nic-out"
	case LinkNICIn:
		return "nic-in"
	case LinkRackUp:
		return "rack-up"
	case LinkRackDown:
		return "rack-down"
	}
	return "unknown"
}

// Link describes one capacity-limited resource.
type Link struct {
	ID       LinkID
	Kind     LinkKind
	Name     string
	Capacity float64 // bytes per second
}

// Node is a machine with a disk and a NIC, placed in a rack.
type Node struct {
	ID     NodeID
	Name   string
	Rack   int
	Disk   LinkID
	NICOut LinkID
	NICIn  LinkID
}

// Config sizes a cluster. Zero fields take 2012-commodity defaults matching
// the paper's testbed (Gigabit Ethernet, single SATA disk per node).
type Config struct {
	Racks        int
	NodesPerRack []int   // length Racks; nil means balanced NodeCount/Racks
	NodeCount    int     // used when NodesPerRack is nil
	DiskBW       float64 // bytes/s per node disk; default 80 MB/s
	NICBW        float64 // bytes/s per direction; default 125 MB/s (1 Gbps)
	RackUplinkBW float64 // bytes/s per direction; default 250 MB/s (2 Gbps)
}

// MB is a convenience constant: one megabyte in bytes.
const MB = 1 << 20

// GB is one gigabyte in bytes.
const GB = 1 << 30

func (c *Config) applyDefaults() {
	if c.Racks <= 0 {
		c.Racks = 3
	}
	if c.DiskBW <= 0 {
		c.DiskBW = 80 * MB
	}
	if c.NICBW <= 0 {
		c.NICBW = 125 * MB
	}
	if c.RackUplinkBW <= 0 {
		c.RackUplinkBW = 250 * MB
	}
	if c.NodesPerRack == nil {
		if c.NodeCount <= 0 {
			c.NodeCount = 18
		}
		c.NodesPerRack = make([]int, c.Racks)
		for i := 0; i < c.NodeCount; i++ {
			c.NodesPerRack[i%c.Racks]++
		}
	}
}

// Topology is an immutable cluster layout plus its link table.
type Topology struct {
	Nodes    []Node
	Links    []Link
	rackUp   []LinkID
	rackDown []LinkID
	racks    int
}

// New builds a topology from cfg.
func New(cfg Config) *Topology {
	cfg.applyDefaults()
	if len(cfg.NodesPerRack) != cfg.Racks {
		panic(fmt.Sprintf("topology: NodesPerRack has %d entries for %d racks",
			len(cfg.NodesPerRack), cfg.Racks))
	}
	t := &Topology{racks: cfg.Racks}
	addLink := func(kind LinkKind, name string, cap float64) LinkID {
		id := LinkID(len(t.Links))
		t.Links = append(t.Links, Link{ID: id, Kind: kind, Name: name, Capacity: cap})
		return id
	}
	for r := 0; r < cfg.Racks; r++ {
		t.rackUp = append(t.rackUp, addLink(LinkRackUp, fmt.Sprintf("rack%d-up", r), cfg.RackUplinkBW))
		t.rackDown = append(t.rackDown, addLink(LinkRackDown, fmt.Sprintf("rack%d-down", r), cfg.RackUplinkBW))
	}
	for r := 0; r < cfg.Racks; r++ {
		for i := 0; i < cfg.NodesPerRack[r]; i++ {
			id := NodeID(len(t.Nodes))
			name := fmt.Sprintf("node%02d", int(id))
			t.Nodes = append(t.Nodes, Node{
				ID:     id,
				Name:   name,
				Rack:   r,
				Disk:   addLink(LinkDisk, name+"/disk", cfg.DiskBW),
				NICOut: addLink(LinkNICOut, name+"/out", cfg.NICBW),
				NICIn:  addLink(LinkNICIn, name+"/in", cfg.NICBW),
			})
		}
	}
	return t
}

// NumNodes returns the machine count.
func (t *Topology) NumNodes() int { return len(t.Nodes) }

// NumRacks returns the rack count.
func (t *Topology) NumRacks() int { return t.racks }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) *Node { return &t.Nodes[id] }

// Rack returns the rack index of a node.
func (t *Topology) Rack(id NodeID) int { return t.Nodes[id].Rack }

// SameRack reports whether two nodes share a rack.
func (t *Topology) SameRack(a, b NodeID) bool { return t.Nodes[a].Rack == t.Nodes[b].Rack }

// NodesInRack lists the node IDs in rack r.
func (t *Topology) NodesInRack(r int) []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Rack == r {
			out = append(out, n.ID)
		}
	}
	return out
}

// MaxReadPath is the most links a client read crosses (a cross-rack read):
// a caller that keeps one read's path inline sizes its array with it.
const MaxReadPath = 5

// ReadPath returns the links a block read crosses when client dst reads from
// datanode src: the source disk, then (if remote) the source NIC, any rack
// hops, and the destination NIC. A node-local read touches only the disk.
func (t *Topology) ReadPath(src, dst NodeID) []LinkID {
	var buf [MaxReadPath]LinkID
	return exact(t.AppendReadPath(buf[:0], src, dst))
}

// exact copies a path built in a stack buffer into one allocation of its
// final length.
func exact(path []LinkID) []LinkID { return append(make([]LinkID, 0, len(path)), path...) }

// AppendReadPath appends ReadPath(src, dst) to path and returns the
// extended slice; into a buffer of MaxReadPath spare links it allocates
// nothing.
func (t *Topology) AppendReadPath(path []LinkID, src, dst NodeID) []LinkID {
	s, d := &t.Nodes[src], &t.Nodes[dst]
	switch {
	case src == dst:
		return append(path, s.Disk)
	case s.Rack == d.Rack:
		return append(path, s.Disk, s.NICOut, d.NICIn)
	}
	return append(path, s.Disk, s.NICOut, t.rackUp[s.Rack], t.rackDown[d.Rack], d.NICIn)
}

// ExternalPath returns the links a read crosses when the consumer is an
// application server outside the cluster (the paper's Figure 8/9 clients):
// the source disk, its NIC, and its rack uplink; the core and the client's
// own network are assumed unbounded.
func (t *Topology) ExternalPath(src NodeID) []LinkID {
	return t.AppendExternalPath(make([]LinkID, 0, 3), src)
}

// AppendExternalPath appends ExternalPath(src) to path and returns the
// extended slice.
func (t *Topology) AppendExternalPath(path []LinkID, src NodeID) []LinkID {
	s := &t.Nodes[src]
	return append(path, s.Disk, s.NICOut, t.rackUp[s.Rack])
}

// TransferPath returns the links a replica transfer crosses from datanode
// src to datanode dst, including the destination disk write. Replication is
// disk-to-disk, unlike a client read which consumes the data in memory.
func (t *Topology) TransferPath(src, dst NodeID) []LinkID {
	if src == dst {
		return []LinkID{t.Nodes[src].Disk}
	}
	var buf [MaxReadPath + 1]LinkID
	return exact(append(t.AppendReadPath(buf[:0], src, dst), t.Nodes[dst].Disk))
}

// RackUplink exposes rack r's uplink (for reports).
func (t *Topology) RackUplink(r int) LinkID { return t.rackUp[r] }

// RackDownlink exposes rack r's downlink.
func (t *Topology) RackDownlink(r int) LinkID { return t.rackDown[r] }
