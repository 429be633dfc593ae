package membership

import (
	"errors"
	"fmt"
	"sort"

	"icistrategy/internal/simnet"
)

// Placement errors.
var (
	ErrNoMembers  = errors.New("membership: cluster has no members")
	ErrBadReplica = errors.New("membership: replication factor must be in [1, cluster size]")
)

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit mixer
// used for rendezvous scores. Placement runs millions of times inside the
// accountant, so this must stay branch-free and allocation-free.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rendezvousScore ranks node candidates for (blockSeed, chunkIdx); the
// highest scores own the chunk.
func rendezvousScore(blockSeed uint64, chunkIdx int, node simnet.NodeID) uint64 {
	return mix64(blockSeed ^ mix64(uint64(chunkIdx)+0x9e3779b97f4a7c15) ^ mix64(uint64(node)))
}

// Owners returns the r members that store chunk chunkIdx of the block with
// the given seed, by highest-random-weight (rendezvous) selection. The
// result is deterministic, balanced in expectation, and minimally
// disruptive: removing a member only reassigns the chunks that member
// owned.
func Owners(blockSeed uint64, members []simnet.NodeID, chunkIdx, r int) ([]simnet.NodeID, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	if r < 1 || r > len(members) {
		return nil, fmt.Errorf("%w: r=%d, members=%d", ErrBadReplica, r, len(members))
	}
	type scored struct {
		id    simnet.NodeID
		score uint64
	}
	best := make([]scored, 0, r) // descending by score
	for _, m := range members {
		s := rendezvousScore(blockSeed, chunkIdx, m)
		if len(best) == r {
			if s <= best[r-1].score {
				continue
			}
			best = best[:r-1]
		}
		i := len(best)
		best = append(best, scored{})
		for ; i > 0 && best[i-1].score < s; i-- {
			best[i] = best[i-1]
		}
		best[i] = scored{id: m, score: s}
	}
	out := make([]simnet.NodeID, r)
	for i, b := range best {
		out[i] = b.id
	}
	return out, nil
}

// RankedMembers returns all members ordered by descending rendezvous score
// for (blockSeed, chunkIdx): the first r entries are the chunk's owners and
// the rest are the fallback order leaders walk when owners fail or reject.
func RankedMembers(blockSeed uint64, members []simnet.NodeID, chunkIdx int) ([]simnet.NodeID, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	out := append([]simnet.NodeID(nil), members...)
	scores := make(map[simnet.NodeID]uint64, len(members))
	for _, m := range out {
		scores[m] = rendezvousScore(blockSeed, chunkIdx, m)
	}
	sort.Slice(out, func(i, j int) bool { return scores[out[i]] > scores[out[j]] })
	return out, nil
}

// IsOwner reports whether node stores chunk chunkIdx of the block with the
// given seed under replication r.
func IsOwner(blockSeed uint64, members []simnet.NodeID, chunkIdx, r int, node simnet.NodeID) (bool, error) {
	owners, err := Owners(blockSeed, members, chunkIdx, r)
	if err != nil {
		return false, err
	}
	return Contains(owners, node), nil
}

// Sources lists the members that may hold chunk idx of the block with the
// given seed, in the order to ask them: its owners under wrote (the epoch
// whose placement stored the chunk), then the further owners under newest
// (where a completed migration copies it), each once and never skip. Like
// Gainers, it clamps r to the member count of each epoch.
func Sources(seed uint64, idx, r int, wrote, newest *Epoch, skip simnet.NodeID) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, 2*r)
	for _, e := range [2]*Epoch{wrote, newest} {
		if owners, err := Owners(seed, e.Members, idx, min(r, len(e.Members))); err == nil {
			out = Union(out, skip, owners)
		}
		if newest == wrote {
			break
		}
	}
	return out
}

// Gainers returns the members that become owners of chunk idx when the
// membership changes from old to next, provided leaver held it under old:
// exactly the pushes a departing owner must make so the chunk keeps r
// replicas. nil when leaver was no owner (its copy is a stale extra).
func Gainers(seed uint64, idx, r int, old, next []simnet.NodeID, leaver simnet.NodeID) []simnet.NodeID {
	before, err := Owners(seed, old, idx, min(r, len(old)))
	if err != nil || !Contains(before, leaver) {
		return nil
	}
	after, err := Owners(seed, next, idx, min(r, len(next)))
	if err != nil {
		return nil
	}
	return Union(before, NoMember, after)[len(before):] // owners after that were none before
}

// Contains reports whether id is in ids.
func Contains(ids []simnet.NodeID, id simnet.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Union appends to dst, in order, each of ids that dst does not hold yet
// and that is not skip: the ordered, de-duplicated member union.
func Union(dst []simnet.NodeID, skip simnet.NodeID, ids []simnet.NodeID) []simnet.NodeID {
	for _, id := range ids {
		if id != skip && !Contains(dst, id) {
			dst = append(dst, id)
		}
	}
	return dst
}
