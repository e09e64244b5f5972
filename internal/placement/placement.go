// Package placement owns the cluster's data-distribution metadata: how
// object names hash onto (n,k) stripe groups, and how each group's n devices
// spread across data nodes.
//
// The map is deliberately tiny and deterministic — pure arithmetic both the
// gateway and the cluster simulator evaluate identically, so simulated runs
// and real networked runs share plans (ROADMAP item 1's "same placement
// types"). Two properties matter:
//
//   - Groups scale capacity and traffic horizontally: names hash uniformly
//     over Groups independent stripe groups, each its own append extent.
//   - Rotation spreads each group's disks over nodes so one node holds at
//     most ceil(n/W) disks of any group. When that bound is within the
//     scheme's fault tolerance, losing a whole node is equivalent to losing
//     tolerable disks in every group at once — degraded reads keep working,
//     which is the invariant the kill-a-node chaos tests lean on.
package placement

import (
	"fmt"
	"hash/fnv"
)

// Map is the placement metadata: Groups stripe groups of Disks devices each,
// spread over the Nodes. It is immutable after construction.
type Map struct {
	// Groups is the number of independent (n,k) stripe groups object names
	// hash across.
	Groups int
	// Disks is the number of devices per group (the scheme's n).
	Disks int
	// Nodes names the data nodes — base URLs for a real cluster, arbitrary
	// identifiers for the simulator. Device placement depends only on
	// len(Nodes).
	Nodes []string
}

// New validates and builds a placement map.
func New(groups, disks int, nodes []string) (*Map, error) {
	if groups < 1 {
		return nil, fmt.Errorf("placement: %d groups", groups)
	}
	if disks < 1 {
		return nil, fmt.Errorf("placement: %d disks per group", disks)
	}
	if len(nodes) < 1 {
		return nil, fmt.Errorf("placement: no nodes")
	}
	return &Map{Groups: groups, Disks: disks, Nodes: append([]string(nil), nodes...)}, nil
}

// GroupOf hashes an object name onto its stripe group (FNV-1a).
func (m *Map) GroupOf(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(m.Groups))
}

// Node returns the index of the node serving the given disk of the given
// group: (group+disk) mod W. The group offset rotates assignments so node
// load evens out across groups even when n and W divide unevenly.
func (m *Map) Node(group, disk int) int {
	return (group + disk) % len(m.Nodes)
}

// NodeOf maps every disk of a group to its node index, in disk order — the
// vector store.CellStoreConfig.NodeOf wants.
func (m *Map) NodeOf(group int) []int {
	out := make([]int, m.Disks)
	for d := range out {
		out[d] = m.Node(group, d)
	}
	return out
}

// DisksOn lists the disks of a group served by one node, in disk order.
func (m *Map) DisksOn(group, node int) []int {
	var out []int
	for d := 0; d < m.Disks; d++ {
		if m.Node(group, d) == node {
			out = append(out, d)
		}
	}
	return out
}

// MaxDisksPerNode is the largest number of one group's disks any single node
// serves: ceil(Disks / len(Nodes)). Losing a node erases at most this many
// disks from each group.
func (m *Map) MaxDisksPerNode() int {
	w := len(m.Nodes)
	return (m.Disks + w - 1) / w
}

// CheckTolerance verifies that losing any one whole node keeps every group
// within the scheme's fault tolerance.
func (m *Map) CheckTolerance(tolerance int) error {
	if worst := m.MaxDisksPerNode(); worst > tolerance {
		return fmt.Errorf("placement: a node holds up to %d disks of one group but the scheme tolerates only %d failures; use ≥ %d nodes",
			worst, tolerance, (m.Disks+tolerance-1)/tolerance)
	}
	return nil
}
