package core

import (
	"fmt"
	"sort"

	"icistrategy/internal/membership"
	"icistrategy/internal/simnet"
)

// A cluster's membership is a membership.Map; this file adds the
// simulator's migration bookkeeping. clusterInfo.placed[seq] names the
// epoch whose placement locates the chunks of blocks written under epoch
// seq. It advances only once a migration (repair, bootstrap, handoff) has
// actually moved the data, so reads never ask members the data has not
// reached yet.

// placementAt returns the epoch whose membership currently locates the
// chunks of a block written at the given height (the write epoch until a
// migration advanced it).
func (c *clusterInfo) placementAt(height uint64) *membership.Epoch {
	return c.epochs.Epoch(c.placed[c.epochs.At(height).Seq])
}

// partsAt returns the chunk count for a block at the given height. The
// count is fixed at write time: membership changes after a block was
// distributed never change how many chunks it consists of.
func (c *clusterInfo) partsAt(height uint64) int {
	return c.epochs.At(height).Parts()
}

// pushEpoch appends a new membership epoch governing blocks from
// fromHeight on and makes it current. members is snapshotted and sorted;
// the caller must not mutate it afterwards. Blocks written under the new
// epoch place under it from the start; older epochs keep their placement
// until a migration completes and calls advancePlacement.
func (c *clusterInfo) pushEpoch(fromHeight uint64, members []simnet.NodeID) (*membership.Epoch, error) {
	snap := append([]simnet.NodeID(nil), members...)
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	e, err := c.epochs.Push(fromHeight, snap, nil)
	if err != nil { // e.g. the cluster would lose its last member
		return nil, fmt.Errorf("core: cluster %d: %w", c.index, err)
	}
	c.placed = append(c.placed, e.Seq)
	c.members = snap
	return e, nil
}

// advancePlacement records that a completed migration moved every block's
// chunks to the placement of epoch toSeq: all older epochs now resolve
// chunk locations against it. Epochs newer than toSeq (pushed while the
// migration ran) are left alone — their own migrations advance them.
func (c *clusterInfo) advancePlacement(toSeq int) {
	if toSeq < 0 || toSeq >= len(c.placed) {
		return
	}
	for seq := 0; seq < toSeq; seq++ {
		c.placed[seq] = max(c.placed[seq], toSeq)
	}
}

// fetchMembers returns the union of the cluster's current members and the
// placement members for a block at the given height, minus self — the peer
// set a broadcast read for that block should ask. Pre-migration blocks live
// on placement-epoch members (some possibly departed and unreachable, which
// the fetch timeout logic tolerates); post-migration copies live on current
// members. The union is deterministic: current members in order, then
// placement-only members in order.
func (c *clusterInfo) fetchMembers(height uint64, self simnet.NodeID) []simnet.NodeID {
	place := c.placementAt(height).Members
	out := membership.Union(make([]simnet.NodeID, 0, len(c.members)+len(place)), self, c.members)
	return membership.Union(out, self, place)
}
