// Package membership is the epochres golden fixture: it mirrors the
// placement API of internal/membership and reproduces the PR-8
// stale-placement bug — ranking owners over the live roster for a block
// whose chunks were placed under an earlier membership epoch — next to the
// epoch-resolved fixed shapes that must stay silent.
package membership

type NodeID string

// Owners mirrors membership.Owners: members is the second argument.
func Owners(blockSeed uint64, members []NodeID, chunkIdx, r int) []NodeID {
	return members
}

// RankedMembers mirrors membership.RankedMembers.
func RankedMembers(blockSeed uint64, members []NodeID, chunkIdx int) []NodeID {
	return members
}

// IsOwner mirrors membership.IsOwner.
func IsOwner(blockSeed uint64, members []NodeID, chunkIdx, r int, node NodeID) bool {
	return len(members) > 0 && members[0] == node
}

// Epoch mirrors membership.Epoch: the roster frozen at the epoch's start
// height.
type Epoch struct {
	FromHeight uint64
	Members    []NodeID
}

// Map mirrors membership.Map.
type Map struct {
	epochs []Epoch
}

// At mirrors membership.Map.At, the write-epoch resolution.
func (m *Map) At(height uint64) *Epoch {
	for i := len(m.epochs) - 1; i > 0; i-- {
		if m.epochs[i].FromHeight <= height {
			return &m.epochs[i]
		}
	}
	return &m.epochs[0]
}

// Newest mirrors membership.Map.Newest.
func (m *Map) Newest() *Epoch {
	return &m.epochs[len(m.epochs)-1]
}

// cluster mirrors a consumer's live state: a mutable roster plus the
// membership map.
type cluster struct {
	members []NodeID
	ids     []NodeID
	epochs  Map
}

// Retrieve is the historical bug verbatim: the function resolves the
// block's write epoch (epoch-aware) but then ranks owners over the LIVE
// roster, so after churn it asks nodes that never held the chunks.
func (c *cluster) Retrieve(seed uint64, height uint64, idx int) []NodeID {
	_ = c.epochs.At(height)                // epoch-aware: parts lookup in the real code
	return Owners(seed, c.members, idx, 2) // want `raw roster`
}

// RetrieveIDs uses the secondary roster field; same bug.
func (c *cluster) RetrieveIDs(seed uint64, height uint64, idx int) []NodeID {
	ep := c.epochs.At(height)
	_ = ep
	return RankedMembers(seed, c.ids, idx) // want `raw roster`
}

// RetrievePinned pins the newest epoch onto a historical block: still the
// bug, just dressed as epoch API.
func (c *cluster) RetrievePinned(seed uint64, height uint64, idx int) bool {
	_ = c.epochs.At(height)
	return IsOwner(seed, c.epochs.Newest().Members, idx, 2, "n1") // want `raw roster`
}

// RetrieveFixed is the PR-8 fix shape: members resolved at the block's
// write height flow into placement.
func (c *cluster) RetrieveFixed(seed uint64, height uint64, idx int) []NodeID {
	ep := c.epochs.At(height)
	return Owners(seed, ep.Members, idx, 2)
}

// RetrieveAt goes through the resolving call directly; silent.
func (c *cluster) RetrieveAt(seed uint64, height uint64, idx int) []NodeID {
	return Owners(seed, c.epochs.At(height).Members, idx, 2)
}

// Place is the write path: no historical-epoch API in sight, so placing
// by the live roster is fine and the function stays out of scope.
func (c *cluster) Place(seed uint64, idx int) []NodeID {
	return Owners(seed, c.members, idx, 2)
}

// RetrieveAllowed documents an intentional current-roster ranking inside
// an epoch-aware function.
func (c *cluster) RetrieveAllowed(seed uint64, height uint64, idx int) []NodeID {
	_ = c.epochs.At(height)
	//icilint:allow epochres(probe deliberately measures live-roster disagreement)
	return Owners(seed, c.members, idx, 2)
}

// helper passes a plain parameter through; parameters are never flagged
// (the caller already chose how to resolve them).
func helper(seed uint64, members []NodeID, height uint64, c *cluster) []NodeID {
	_ = c.epochs.At(height)
	return Owners(seed, members, 0, 2)
}
