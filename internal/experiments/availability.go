package experiments

import (
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/membership"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
)

// E7Availability regenerates the "data availability under node failures"
// figure by Monte-Carlo over the real placement function: the probability
// that a cluster can still reassemble a block when a random fraction of its
// members has failed, for replication r ∈ {1,2,3} and for the RS(16,20)
// coded-storage extension (any 16 of 20 shares reconstruct).
func E7Availability(p Params) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		fmt.Sprintf("E7: block availability vs failed fraction (cluster size %d, %d trials)",
			p.ClusterSize, p.AvailTrials),
		"fail_frac", "r=1", "r=2", "r=3", "RS(16,20)")
	members := make([]simnet.NodeID, p.ClusterSize)
	for i := range members {
		members[i] = simnet.NodeID(i)
	}
	rng := blockcrypto.NewRNG(p.Seed ^ 0xA7A11)
	fracs := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5}
	const rsData, rsTotal = 16, 20
	for _, f := range fracs {
		failures := int(f * float64(p.ClusterSize))
		repOK := [3]int{}
		rsOK := 0
		for trial := 0; trial < p.AvailTrials; trial++ {
			seed := rng.Uint64()
			down := failSet(members, failures, rng)
			for r := 1; r <= 3; r++ {
				if r > p.ClusterSize {
					continue
				}
				if replicatedBlockAvailable(seed, members, down, r) {
					repOK[r-1]++
				}
			}
			if codedBlockAvailable(seed, members, down, rsData, rsTotal) {
				rsOK++
			}
		}
		trials := float64(p.AvailTrials)
		tbl.AddRow(f,
			float64(repOK[0])/trials, float64(repOK[1])/trials,
			float64(repOK[2])/trials, float64(rsOK)/trials)
	}
	return tbl, nil
}

// failSet samples a random set of failed members.
func failSet(members []simnet.NodeID, failures int, rng *blockcrypto.RNG) map[simnet.NodeID]bool {
	perm := rng.Perm(len(members))
	down := make(map[simnet.NodeID]bool, failures)
	for _, idx := range perm[:failures] {
		down[members[idx]] = true
	}
	return down
}

// replicatedBlockAvailable reports whether a block stored with plain
// replication r survives the failure set: every chunk needs one live owner.
func replicatedBlockAvailable(seed uint64, members []simnet.NodeID, down map[simnet.NodeID]bool, r int) bool {
	for idx := 0; idx < len(members); idx++ {
		owners, err := membership.Owners(seed, members, idx, r)
		if err != nil {
			return false
		}
		alive := false
		for _, o := range owners {
			if !down[o] {
				alive = true
				break
			}
		}
		if !alive {
			return false
		}
	}
	return true
}

// codedBlockAvailable reports whether an RS(k, total)-coded block survives:
// at least k of the total shares (each on one distinct rendezvous owner)
// are on live members.
func codedBlockAvailable(seed uint64, members []simnet.NodeID, down map[simnet.NodeID]bool, k, total int) bool {
	if total > len(members) {
		total = len(members)
	}
	live := 0
	for idx := 0; idx < total; idx++ {
		owners, err := membership.Owners(seed, members, idx, 1)
		if err != nil {
			return false
		}
		if !down[owners[0]] {
			live++
		}
	}
	return live >= k
}
