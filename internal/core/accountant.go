package core

import (
	"errors"
	"fmt"

	"icistrategy/internal/chain"
	"icistrategy/internal/cluster"
	"icistrategy/internal/membership"
	"icistrategy/internal/simnet"
	"icistrategy/internal/strategy"
)

// Accountant errors.
var (
	ErrNilAssignment = errors.New("core: nil cluster assignment")
)

// Accountant is the analytic layer of ICIStrategy: it applies the exact
// chunking and rendezvous placement rules of the protocol to block sizes
// and answers byte-exact per-node storage and bootstrap questions without
// materializing any data. Node i of the assignment is simnet.NodeID(i).
type Accountant struct {
	assignment  *cluster.Assignment
	replication int
	nodeBytes   []int64 // body bytes owned per node
	headerBytes int64   // header bytes (identical on every node)
	blocks      int
	totalBody   int64
}

var _ strategy.Accountant = (*Accountant)(nil)

// NewAccountant builds the analytic model for the given cluster assignment
// and replication factor. Every cluster must be non-empty and replication
// must not exceed the smallest cluster.
func NewAccountant(asg *cluster.Assignment, replication int) (*Accountant, error) {
	if asg == nil {
		return nil, ErrNilAssignment
	}
	if err := asg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	for c := 0; c < asg.NumClusters(); c++ {
		if sz := asg.Size(c); replication < 1 || replication > sz {
			return nil, fmt.Errorf("%w: r=%d, cluster %d has %d members", membership.ErrBadReplica, replication, c, sz)
		}
	}
	return &Accountant{
		assignment:  asg,
		replication: replication,
		nodeBytes:   make([]int64, len(asg.ClusterOf)),
	}, nil
}

// Name implements strategy.Accountant.
func (a *Accountant) Name() string { return "ici" }

// NumBlocks implements strategy.Accountant.
func (a *Accountant) NumBlocks() int { return a.blocks }

// NumNodes implements strategy.Accountant.
func (a *Accountant) NumNodes() int { return len(a.nodeBytes) }

// Replication returns the configured replication factor.
func (a *Accountant) Replication() int { return a.replication }

// AddBlock implements strategy.Accountant: record a block whose body is
// bodySize bytes, seeding placement with the block index. Chunk sizes are
// the balanced integer split of the body across each cluster's members —
// exact for the uniform-transaction workloads the experiments run, and
// within one transaction of the protocol otherwise.
func (a *Accountant) AddBlock(bodySize int64) {
	a.addBlockSized(uint64(a.blocks)+1, int(bodySize), nil)
}

// AddBlockSeeded is AddBlock with an explicit placement seed (the protocol
// uses the block hash); the cross-check tests feed both layers the same
// seed and expect identical per-node bytes.
func (a *Accountant) AddBlockSeeded(seed uint64, bodySize int64) {
	a.addBlockSized(seed, int(bodySize), nil)
}

// AddBlockTxs records a block given its individual encoded transaction
// sizes, reproducing the protocol's transaction-boundary chunking exactly.
func (a *Accountant) AddBlockTxs(seed uint64, txSizes []int) {
	a.addBlockSized(seed, 0, txSizes)
}

func (a *Accountant) addBlockSized(seed uint64, bodySize int, txSizes []int) {
	a.blocks++
	a.headerBytes += int64(chain.HeaderSize)
	if txSizes != nil {
		bodySize = 4
		for _, s := range txSizes {
			bodySize += s
		}
	}
	a.totalBody += int64(bodySize)

	for c := 0; c < a.assignment.NumClusters(); c++ {
		members := a.assignment.Members[c]
		ids := memberIDs(members)
		parts := len(members)
		var chunkBytes []int
		if txSizes != nil {
			chunkBytes = chunkBytesFromTxs(txSizes, parts)
		} else {
			// Balanced byte split; SplitCounts cannot fail for parts >= 1.
			chunkBytes, _ = SplitCounts(bodySize, parts)
		}
		for i, cb := range chunkBytes {
			owners, err := membership.Owners(seed, ids, i, a.replication)
			if err != nil {
				// Unreachable: membership and replication were validated in
				// NewAccountant.
				continue
			}
			for _, o := range owners {
				a.nodeBytes[int(o)] += int64(cb)
			}
		}
	}
}

// chunkBytesFromTxs computes the encoded size of each chunk when the
// transaction list is split into parts balanced groups, matching
// chain.Block sub-body encoding (4-byte count prefix per chunk).
func chunkBytesFromTxs(txSizes []int, parts int) []int {
	counts, _ := SplitCounts(len(txSizes), parts)
	out := make([]int, parts)
	idx := 0
	for i, cnt := range counts {
		total := 4
		for j := 0; j < cnt; j++ {
			total += txSizes[idx]
			idx++
		}
		out[i] = total
	}
	return out
}

func memberIDs(members []int) []simnet.NodeID {
	out := make([]simnet.NodeID, len(members))
	for i, m := range members {
		out[i] = simnet.NodeID(m)
	}
	return out
}

// NodeBytes implements strategy.Accountant.
func (a *Accountant) NodeBytes(node int) (int64, error) {
	if node < 0 || node >= len(a.nodeBytes) {
		return 0, strategy.ErrNodeOutOfRange
	}
	return a.headerBytes + a.nodeBytes[node], nil
}

// BootstrapBytes implements strategy.Accountant: a joining ICI node
// downloads every header plus only the chunks rendezvous placement assigns
// to it — exactly its steady-state footprint.
func (a *Accountant) BootstrapBytes(node int) (int64, error) {
	return a.NodeBytes(node)
}

// TotalBodyBytes returns the total body data recorded so far (one logical
// copy).
func (a *Accountant) TotalBodyBytes() int64 { return a.totalBody }
