package gateway

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/membership"
	"icistrategy/internal/netx"
)

// Gateway errors.
var (
	ErrUnknownBlock = errors.New("gateway: unknown block")
	ErrIncomplete   = errors.New("gateway: could not gather every chunk")
)

// Upstream is the storage-cluster view the gateway reads through. The
// production implementation is ClusterUpstream (below) over the netx TCP
// protocol; tests substitute fakes to count and fault upstream traffic.
//
// Peer numbers are stable for the lifetime of the Upstream — membership
// refreshes may add peers but never renumber existing ones, so cached
// placement and per-peer batching stay coherent across churn.
type Upstream interface {
	// Parts returns how many chunks the block was split into at write time
	// (the netx distribution convention: one chunk per member of the
	// membership epoch the block was written under).
	Parts(block blockcrypto.Hash) (int, error)
	// Owners returns the peers that may hold chunk idx of the block: its
	// write-epoch owners in rendezvous preference order, then any owners
	// the chunk migrated to under the newest epoch.
	Owners(block blockcrypto.Hash, idx int) ([]int, error)
	// Peers returns the current (newest-epoch) members, for operations that
	// address the live cluster rather than one block's placement.
	Peers() []int
	// Refresh re-fetches the cluster map from the live members and reports
	// whether a newer membership was adopted — the recovery path when a
	// read misses because the local map went stale.
	Refresh() bool
	// Header resolves a block hash to its header.
	Header(block blockcrypto.Hash) (chain.Header, error)
	// FetchBatch fetches chunks from one peer in a single round trip; the
	// response answers position-for-position with Found flags.
	FetchBatch(peer int, refs []netx.ChunkRef) (*netx.ChunkBatchResp, error)
	// TxProof asks one peer for a transaction plus its stored Merkle proof.
	TxProof(peer int, block, txID blockcrypto.Hash) (*netx.TxProofResp, error)
}

// ClusterUpstream reads from a netx storage cluster: one cached connection
// per member, the same rendezvous placement the writers used, and a local
// header index kept fresh by incremental header syncs.
//
// Membership is epoch-versioned: the upstream starts from the constructor
// roster as epoch 0 and adopts any newer cluster map published to the
// servers (see netx.SetClusterMap). Blocks resolve their placement against
// the epoch they were written under, so reads of pre-churn history keep
// working after members join or retire. The peer roster is append-only —
// a member keeps its peer number across refreshes and rejoins.
type ClusterUpstream struct {
	replication int

	mu      sync.Mutex
	roster  []string       // peer number -> address; append-only
	peerOf  map[string]int // address -> peer number
	cmap    *membership.Map
	clients map[int]*netx.Client
	timeout time.Duration

	hmu        sync.Mutex
	headers    map[blockcrypto.Hash]chain.Header
	nextHeight uint64
}

// NewClusterUpstream wires an upstream over the cluster's server addresses;
// replication must match the value blocks were distributed with. The given
// addresses become membership epoch 0 (membership.Genesis, the
// netx.NewCluster convention); later epochs arrive via Refresh.
func NewClusterUpstream(addrs []string, replication int) (*ClusterUpstream, error) {
	if len(addrs) == 0 {
		return nil, netx.ErrNoServers
	}
	if replication < 1 || replication > len(addrs) {
		return nil, fmt.Errorf("gateway: replication %d with %d servers", replication, len(addrs))
	}
	genesis, err := membership.Genesis(addrs)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	u := &ClusterUpstream{
		replication: replication,
		peerOf:      make(map[string]int),
		clients:     make(map[int]*netx.Client),
		timeout:     netx.DefaultRPCTimeout,
		headers:     make(map[blockcrypto.Hash]chain.Header),
	}
	u.adoptLocked(genesis)
	return u, nil
}

// adoptLocked installs a cluster map, growing the append-only roster with
// any member not yet numbered. Callers hold u.mu (or are the constructor).
func (u *ClusterUpstream) adoptLocked(m *membership.Map) {
	for seq := 0; seq < m.Len(); seq++ {
		for _, addr := range m.Epoch(seq).Addrs {
			if _, ok := u.peerOf[addr]; !ok {
				u.peerOf[addr] = len(u.roster)
				u.roster = append(u.roster, addr)
			}
		}
	}
	u.cmap = m
}

// SetTimeout sets the per-round-trip deadline for upstream calls.
func (u *ClusterUpstream) SetTimeout(d time.Duration) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.timeout = d
	for _, c := range u.clients {
		c.SetTimeout(d)
	}
}

// Close drops every cached connection.
func (u *ClusterUpstream) Close() {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, c := range u.clients {
		_ = c.Close()
	}
	u.clients = make(map[int]*netx.Client)
}

// Parts implements Upstream: the chunk count of the membership epoch the
// block was written under.
func (u *ClusterUpstream) Parts(block blockcrypto.Hash) (int, error) {
	hdr, err := u.Header(block)
	if err != nil {
		return 0, err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.cmap.At(hdr.Height).Parts(), nil
}

// Owners implements Upstream: the block's write-epoch owners first (where
// the chunk was placed), then any distinct owners under the newest epoch
// (where graceful departures migrate it to) — membership.Sources, mapped
// to peer numbers.
func (u *ClusterUpstream) Owners(block blockcrypto.Hash, idx int) ([]int, error) {
	hdr, err := u.Header(block)
	if err != nil {
		return nil, err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	m := u.cmap
	ids := membership.Sources(block.Uint64(), idx, u.replication, m.At(hdr.Height), m.Newest(), membership.NoMember)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = u.peerOf[m.Addr(id)]
	}
	return out, nil
}

// Peers implements Upstream: the newest epoch's members by peer number.
func (u *ClusterUpstream) Peers() []int {
	u.mu.Lock()
	defer u.mu.Unlock()
	newest := u.cmap.Newest()
	out := make([]int, len(newest.Addrs))
	for i, addr := range newest.Addrs {
		out[i] = u.peerOf[addr]
	}
	return out
}

// Refresh implements Upstream: poll every known peer for its cluster map
// and adopt the newest valid one found. Returns true when membership
// advanced — the caller's cue to retry a read that missed under the stale
// map.
func (u *ClusterUpstream) Refresh() bool {
	u.mu.Lock()
	known := len(u.roster)
	have := u.cmap.Newest().Seq
	u.mu.Unlock()

	var best *membership.Map
	for peer := 0; peer < known; peer++ {
		c, err := u.client(peer)
		if err != nil {
			continue
		}
		epochs, err := c.GetClusterMap()
		if err != nil {
			u.dropClient(peer)
			continue
		}
		m, err := netx.ParseClusterMap(epochs)
		if err == nil && m.Newest().Seq > have && (best == nil || m.Len() > best.Len()) {
			best = m
		}
	}
	if best == nil {
		return false
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if best.Newest().Seq <= u.cmap.Newest().Seq {
		return false // raced with another refresher
	}
	u.adoptLocked(best)
	return true
}

// client returns a cached or fresh connection to peer.
func (u *ClusterUpstream) client(peer int) (*netx.Client, error) {
	u.mu.Lock()
	if peer < 0 || peer >= len(u.roster) {
		u.mu.Unlock()
		return nil, fmt.Errorf("gateway: peer %d of %d", peer, len(u.roster))
	}
	if c, ok := u.clients[peer]; ok {
		u.mu.Unlock()
		return c, nil
	}
	addr := u.roster[peer]
	timeout := u.timeout
	u.mu.Unlock()
	c, err := netx.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(timeout)
	u.mu.Lock()
	defer u.mu.Unlock()
	if existing, ok := u.clients[peer]; ok {
		_ = c.Close()
		return existing, nil
	}
	u.clients[peer] = c
	return c, nil
}

// dropClient evicts a connection after a transport failure (the deadline
// may have left a frame half-read; the connection is poisoned).
func (u *ClusterUpstream) dropClient(peer int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if c, ok := u.clients[peer]; ok {
		_ = c.Close()
		delete(u.clients, peer)
	}
}

// FetchBatch implements Upstream.
func (u *ClusterUpstream) FetchBatch(peer int, refs []netx.ChunkRef) (*netx.ChunkBatchResp, error) {
	c, err := u.client(peer)
	if err != nil {
		return nil, err
	}
	resp, err := c.GetChunkBatch(refs)
	if err != nil {
		u.dropClient(peer)
		return nil, err
	}
	return resp, nil
}

// TxProof implements Upstream.
func (u *ClusterUpstream) TxProof(peer int, block, txID blockcrypto.Hash) (*netx.TxProofResp, error) {
	c, err := u.client(peer)
	if err != nil {
		return nil, err
	}
	resp, err := c.GetTxProof(block, txID)
	if err != nil {
		u.dropClient(peer)
		return nil, err
	}
	return resp, nil
}

// Header implements Upstream: a local index miss triggers one incremental
// header sync (every header at or above the highest height seen) from the
// first reachable live member before giving up.
func (u *ClusterUpstream) Header(block blockcrypto.Hash) (chain.Header, error) {
	u.hmu.Lock()
	if h, ok := u.headers[block]; ok {
		u.hmu.Unlock()
		return h, nil
	}
	from := u.nextHeight
	u.hmu.Unlock()

	var lastErr error = ErrUnknownBlock
	for _, peer := range u.Peers() {
		c, err := u.client(peer)
		if err != nil {
			lastErr = err
			continue
		}
		hdrs, err := c.GetHeaders(from)
		if err != nil {
			u.dropClient(peer)
			lastErr = err
			continue
		}
		u.hmu.Lock()
		for _, h := range hdrs {
			u.headers[h.Hash()] = h
			if h.Height+1 > u.nextHeight {
				u.nextHeight = h.Height + 1
			}
		}
		h, ok := u.headers[block]
		u.hmu.Unlock()
		if ok {
			return h, nil
		}
		return chain.Header{}, fmt.Errorf("%w: %s", ErrUnknownBlock, block.Short())
	}
	return chain.Header{}, fmt.Errorf("gateway: header sync: %w", lastErr)
}
