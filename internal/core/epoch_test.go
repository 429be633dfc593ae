package core

import (
	"testing"

	"icistrategy/internal/simnet"
)

func epochIDs(ns ...uint64) []simnet.NodeID {
	out := make([]simnet.NodeID, len(ns))
	for i, n := range ns {
		out[i] = simnet.NodeID(n)
	}
	return out
}

func TestEpochBoundaryArithmetic(t *testing.T) {
	ci := &clusterInfo{index: 0}
	ci.pushEpoch(0, epochIDs(0, 1, 2, 3))
	ci.pushEpoch(5, epochIDs(0, 1, 2))

	// A block exactly at fromHeight is governed by the new epoch; the block
	// one below stays with the old one.
	if got := ci.partsAt(4); got != 4 {
		t.Fatalf("partsAt(4) = %d, want 4 (old epoch)", got)
	}
	if got := ci.partsAt(5); got != 3 {
		t.Fatalf("partsAt(5) = %d, want 3 (boundary belongs to the new epoch)", got)
	}
	if got := ci.epochs.At(5).Seq; got != 1 {
		t.Fatalf("At(5).Seq = %d, want 1", got)
	}
	// Heights far beyond the last boundary resolve to the newest epoch.
	if got := ci.partsAt(1 << 40); got != 3 {
		t.Fatalf("partsAt(huge) = %d, want 3", got)
	}
	if got := len(ci.epochs.At(4).Members); got != 4 {
		t.Fatalf("At(4) has %d members, want 4", got)
	}
}

func TestBackToBackEpochsSameHeightLastWins(t *testing.T) {
	// Two membership changes before any block lands between them: the
	// shadowed epoch never governed a block, so lookups must resolve to the
	// later push at every height.
	ci := &clusterInfo{index: 0}
	ci.pushEpoch(0, epochIDs(0, 1, 2, 3))
	ci.pushEpoch(7, epochIDs(0, 1, 2))       // shadowed
	ci.pushEpoch(7, epochIDs(0, 1, 2, 4, 5)) // wins

	e := ci.epochs.At(7)
	if e.Seq != 2 || e.Parts() != 5 {
		t.Fatalf("At(7) = seq %d parts %d, want seq 2 parts 5", e.Seq, e.Parts())
	}
	for h := uint64(0); h < 20; h++ {
		if ci.epochs.At(h).Seq == 1 {
			t.Fatalf("shadowed epoch governs height %d", h)
		}
	}
	if got := ci.partsAt(6); got != 4 {
		t.Fatalf("partsAt(6) = %d, want 4 (genesis epoch)", got)
	}
}

func TestAdvancePlacementMonotone(t *testing.T) {
	ci := &clusterInfo{index: 0}
	ci.pushEpoch(0, epochIDs(0, 1, 2, 3))
	ci.pushEpoch(3, epochIDs(0, 1, 2))
	ci.pushEpoch(6, epochIDs(0, 1, 2, 4))

	// Fresh epochs place under themselves.
	if got := ci.placementAt(0).Seq; got != 0 {
		t.Fatalf("placementAt(0).Seq = %d before any migration, want 0", got)
	}
	// Migrating to epoch 1 moves epoch 0's placement but not epoch 2's.
	ci.advancePlacement(1)
	if got := ci.placementAt(0).Seq; got != 1 {
		t.Fatalf("placementAt(0).Seq = %d after advance(1), want 1", got)
	}
	if got := ci.placementAt(6).Seq; got != 2 {
		t.Fatalf("placementAt(6).Seq = %d, newer epoch must be untouched", got)
	}
	// Advancing is monotone: an older migration completing late cannot roll
	// placement back.
	ci.advancePlacement(2)
	ci.advancePlacement(1)
	if got := ci.placementAt(0).Seq; got != 2 {
		t.Fatalf("placementAt(0).Seq = %d after late advance(1), want 2", got)
	}
	// Out-of-range targets are ignored.
	ci.advancePlacement(99)
	ci.advancePlacement(-1)
	if got := ci.placementAt(0).Seq; got != 2 {
		t.Fatalf("placementAt(0).Seq = %d after bogus advances, want 2", got)
	}
}

func TestFetchMembersUnion(t *testing.T) {
	ci := &clusterInfo{index: 0}
	ci.pushEpoch(0, epochIDs(0, 1, 2, 3))
	ci.pushEpoch(4, epochIDs(0, 1, 2)) // node 3 departed, not yet migrated

	// A pre-churn block's fetch set is the union of current and placement
	// members (minus self): the departed node may still be the only holder.
	got := ci.fetchMembers(0, 0)
	want := epochIDs(1, 2, 3)
	if len(got) != len(want) {
		t.Fatalf("fetchMembers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fetchMembers = %v, want %v", got, want)
		}
	}
	// After migration the union collapses to the current members.
	ci.advancePlacement(1)
	got = ci.fetchMembers(0, 0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fetchMembers post-migration = %v, want [1 2]", got)
	}
}

func TestEpochLookupSurvivesPrune(t *testing.T) {
	// Prune never touches the epoch history: after a removal, repair and a
	// prune pass, historic blocks still resolve write-epoch arithmetic and
	// remain retrievable.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 90})
	blocks := produceAndSettle(t, sys, gen, 3, 16)
	members, _ := sys.ClusterMembers(0)
	writeParts := len(members)
	if err := sys.RemoveNode(members[1]); err != nil {
		t.Fatal(err)
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatal("repair lost chunks")
	}
	if _, err := sys.PruneCluster(0); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if got := sys.clusters[0].partsAt(b.Header.Height); got != writeParts {
			t.Fatalf("height %d: parts %d after prune, want %d", b.Header.Height, got, writeParts)
		}
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	// Placement for historic heights points at the repaired epoch.
	if got := sys.clusters[0].placementAt(0).Seq; got != 1 {
		t.Fatalf("placement seq = %d after repair+prune, want 1", got)
	}
}
