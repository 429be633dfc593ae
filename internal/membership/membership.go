// Package membership is the one home of cluster membership, shared by the
// simulator (core), the TCP driver (netx) and the read gateway: rendezvous
// chunk placement, the epoch-versioned membership map that resolves the
// members a block was written under, and the placement identities of
// members. Each membership change appends an epoch instead of mutating the
// roster, so a historic block keeps resolving to the members that stored it.
package membership

import (
	"errors"
	"fmt"

	"icistrategy/internal/simnet"
)

// ErrBadMap reports a membership map that violates an epoch invariant.
var ErrBadMap = errors.New("membership: malformed map")

// NoMember is the "skip nobody" argument of Sources and Union.
const NoMember = ^simnet.NodeID(0)

// Epoch is one immutable entry of a membership map: the member set that
// governs blocks written at or above FromHeight.
type Epoch struct {
	Seq        int             // position in the map; 0 is the genesis epoch
	FromHeight uint64          // first height governed by this epoch
	Members    []simnet.NodeID // placement identities; never mutated
	Addrs      []string        // parallel to Members over TCP; nil in simnet
}

// Parts returns the chunk count of blocks written under the epoch.
func (e *Epoch) Parts() int { return len(e.Members) }

// Map is an append-only, epoch-versioned membership map. The zero value is
// an empty map ready for Push.
type Map struct {
	epochs []Epoch
}

// New builds a map from epochs, oldest first, rejecting any that breaks an
// invariant: positional sequence numbers, non-empty epochs, non-decreasing
// FromHeight, and no member ID or address listed twice in one epoch.
func New(epochs []Epoch) (*Map, error) {
	if len(epochs) == 0 {
		return nil, fmt.Errorf("%w: no epochs", ErrBadMap)
	}
	m := &Map{epochs: make([]Epoch, 0, len(epochs))}
	for i, e := range epochs {
		if e.Seq != i {
			return nil, fmt.Errorf("%w: epoch %d at position %d", ErrBadMap, e.Seq, i)
		}
		if err := m.append(e); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Push appends an epoch governing blocks from fromHeight on and returns it.
// The slices are owned by the map afterwards.
func (m *Map) Push(fromHeight uint64, members []simnet.NodeID, addrs []string) (*Epoch, error) {
	if err := m.append(Epoch{Seq: len(m.epochs), FromHeight: fromHeight, Members: members, Addrs: addrs}); err != nil {
		return nil, err
	}
	return m.Newest(), nil
}

// append validates e against the newest epoch and adds it.
func (m *Map) append(e Epoch) error {
	if len(e.Members) == 0 {
		return fmt.Errorf("%w: epoch %d has no members", ErrBadMap, e.Seq)
	}
	if e.Addrs != nil && len(e.Addrs) != len(e.Members) {
		return fmt.Errorf("%w: epoch %d has %d addresses for %d members", ErrBadMap, e.Seq, len(e.Addrs), len(e.Members))
	}
	if n := len(m.epochs); n > 0 && e.FromHeight < m.epochs[n-1].FromHeight {
		return fmt.Errorf("%w: epoch %d starts at height %d, below its predecessor's %d", ErrBadMap, e.Seq, e.FromHeight, m.epochs[n-1].FromHeight)
	}
	ids := make(map[simnet.NodeID]bool, len(e.Members))
	addrs := make(map[string]bool, len(e.Addrs))
	for i, id := range e.Members {
		if ids[id] {
			return fmt.Errorf("%w: epoch %d lists member %d twice", ErrBadMap, e.Seq, id)
		}
		ids[id] = true
		if e.Addrs == nil {
			continue
		}
		if addrs[e.Addrs[i]] {
			return fmt.Errorf("%w: epoch %d lists address %s twice", ErrBadMap, e.Seq, e.Addrs[i])
		}
		addrs[e.Addrs[i]] = true
	}
	m.epochs = append(m.epochs, e)
	return nil
}

// Genesis returns the one-epoch map a deployment implicitly runs under
// before any churn is published: addrs[i] serves as member i.
func Genesis(addrs []string) (*Map, error) {
	var none *Map // no map: positional identities
	return New([]Epoch{{Members: none.Identify(addrs), Addrs: append([]string(nil), addrs...)}})
}

// At returns the epoch governing blocks at height: the last epoch with
// FromHeight <= height, so of back-to-back epochs at one height the last
// wins. This is the only write-epoch resolution in the tree; it does not
// allocate.
func (m *Map) At(height uint64) *Epoch {
	for i := len(m.epochs) - 1; i > 0; i-- {
		if m.epochs[i].FromHeight <= height {
			return &m.epochs[i]
		}
	}
	return &m.epochs[0]
}

// Newest returns the current epoch.
func (m *Map) Newest() *Epoch { return &m.epochs[len(m.epochs)-1] }

// Epoch returns the epoch with sequence number seq.
func (m *Map) Epoch(seq int) *Epoch { return &m.epochs[seq] }

// Len returns the number of epochs.
func (m *Map) Len() int { return len(m.epochs) }

// Addr returns the address of member id in the epoch; "" when absent.
func (e *Epoch) Addr(id simnet.NodeID) string {
	for j, x := range e.Members {
		if x == id && j < len(e.Addrs) {
			return e.Addrs[j]
		}
	}
	return ""
}

// Addr returns the address the newest epoch listing id gives it; "" when
// no epoch lists it with an address.
func (m *Map) Addr(id simnet.NodeID) string {
	for i := len(m.epochs) - 1; i >= 0; i-- {
		if a := m.epochs[i].Addr(id); a != "" {
			return a
		}
	}
	return ""
}

// Identify assigns placement identities to addrs. An address keeps the ID
// any epoch gave it, searching the newest epoch first; an address no epoch
// lists gets the next ID above every one in use. A nil map numbers addrs by
// position (the genesis convention).
func (m *Map) Identify(addrs []string) []simnet.NodeID {
	known := make(map[string]simnet.NodeID)
	var next simnet.NodeID
	for i := 0; m != nil && i < len(m.epochs); i++ {
		e := &m.epochs[i]
		for j, id := range e.Members {
			if j < len(e.Addrs) {
				known[e.Addrs[j]] = id // later epochs overwrite: newest wins
			}
			next = max(next, id+1)
		}
	}
	out := make([]simnet.NodeID, len(addrs))
	for i, a := range addrs {
		id, ok := known[a]
		if !ok {
			id, next = next, next+1
			known[a] = id
		}
		out[i] = id
	}
	return out
}
