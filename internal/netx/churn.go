package netx

import (
	"fmt"

	"icistrategy/internal/membership"
	"icistrategy/internal/simnet"
)

// GetClusterMap fetches the server's epoch-versioned cluster map; an empty
// slice means no map was ever published to that server.
func (c *Client) GetClusterMap() ([]EpochInfo, error) {
	resp, err := c.roundTrip(&Request{GetClusterMap: &ClusterMapReq{}})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if resp.ClusterMap == nil {
		return nil, ErrBadRequest
	}
	return resp.ClusterMap.Epochs, nil
}

// SetClusterMap publishes a cluster map to the server. The server keeps the
// newest map it has seen, so delivering a stale map is harmless.
func (c *Client) SetClusterMap(epochs []EpochInfo) error {
	resp, err := c.roundTrip(&Request{SetClusterMap: &SetClusterMapReq{Epochs: epochs}})
	if err != nil {
		return err
	}
	return respError(resp)
}

// publishedMap gathers the newest valid cluster map published to any
// reachable member; nil when nobody holds one. Polling every member (not
// just the first) tolerates members that missed an earlier publish.
func (cl *Cluster) publishedMap() *membership.Map {
	var best *membership.Map
	for _, addr := range cl.addrs {
		c, err := cl.client(addr)
		if err != nil {
			continue
		}
		epochs, err := c.GetClusterMap()
		if err != nil {
			cl.dropClient(addr)
			continue
		}
		m, err := ParseClusterMap(epochs)
		if err == nil && (best == nil || m.Len() > best.Len()) { // epoch numbers are positional
			best = m
		}
	}
	return best
}

// orGenesis returns m, or when nobody published a map the genesis epoch
// over the cluster's addresses — the map every deployment implicitly runs
// under before any churn is published.
func (cl *Cluster) orGenesis(m *membership.Map) (*membership.Map, error) {
	if m != nil {
		return m, nil
	}
	return membership.Genesis(cl.addrs)
}

// maxHeight reports the highest header height any reachable member holds.
func (cl *Cluster) maxHeight() (uint64, bool) {
	var top uint64
	found := false
	for _, addr := range cl.addrs {
		c, err := cl.client(addr)
		if err != nil {
			continue
		}
		headers, err := c.GetHeaders(0)
		if err != nil {
			cl.dropClient(addr)
			continue
		}
		for _, h := range headers {
			if !found || h.Height > top {
				top, found = h.Height, true
			}
		}
	}
	return top, found
}

// PublishEpoch appends a membership epoch to the cluster map and pushes the
// updated map to every reachable member of both the old and new rosters.
// The epoch governs blocks written above the highest header currently held
// and never starts below the newest epoch (only lagging members may
// answer), so history keeps resolving against its write-time membership.
// addrs parallels ids. Returns the new epoch number.
func (cl *Cluster) PublishEpoch(ids []simnet.NodeID, addrs []string) (int, error) {
	m, err := cl.orGenesis(cl.publishedMap()) // fresh: append to the newest map
	if err != nil {
		return 0, err
	}
	from := m.Newest().FromHeight
	if h, ok := cl.maxHeight(); ok {
		from = max(from, h+1)
	}
	next, err := m.Push(from, ids, addrs)
	if err != nil {
		return 0, fmt.Errorf("netx: publish epoch: %w", err)
	}
	epochs := wireMap(m)

	targets := make(map[string]bool, len(cl.addrs)+len(addrs))
	for _, addr := range cl.addrs {
		targets[addr] = true
	}
	for _, a := range addrs {
		targets[a] = true
	}
	published := 0
	for addr := range targets {
		c, err := cl.client(addr)
		if err != nil {
			continue
		}
		if err := c.SetClusterMap(epochs); err != nil {
			cl.dropClient(addr)
			continue
		}
		published++
	}
	if published == 0 {
		return 0, fmt.Errorf("netx: cluster map epoch %d reached no member", next.Seq)
	}
	return next.Seq, nil
}

// memberIndex returns addr's position in the cluster, or an error when it
// is not a member.
func (cl *Cluster) memberIndex(addr string) (int, error) {
	for i, a := range cl.addrs {
		if a == addr {
			return i, nil
		}
	}
	return -1, fmt.Errorf("netx: %s is not a cluster member", addr)
}

// RetireMember gracefully removes the member serving at addr from a cluster
// whose full current membership this Cluster was built over. Every chunk
// the leaver holds whose ownership shifts under the shrunk membership is
// pushed to the gaining owners (the receiving server verifies on write),
// and the shrunk epoch is then published cluster-wide so readers and
// gateways learn the new roster. Chunks that keep an owner under the old
// placement stay put: rendezvous hashing only promotes on removal, so the
// transfer set is exactly the leaver's displaced replicas. Returns the
// number of chunks moved.
func (cl *Cluster) RetireMember(addr string) (int, error) {
	li, err := cl.memberIndex(addr)
	if err != nil {
		return 0, err
	}
	if len(cl.addrs) == 1 {
		return 0, fmt.Errorf("netx: cannot retire the last member")
	}
	ids := cl.identities()
	shrunk := append(ids[:li:li], ids[li+1:]...)
	remaining := append(cl.addrs[:li:li], cl.addrs[li+1:]...)

	leaver, err := cl.client(addr)
	if err != nil {
		return 0, fmt.Errorf("netx: retire %s: %w", addr, err)
	}
	headers, err := leaver.GetHeaders(0)
	if err != nil {
		cl.dropClient(addr)
		return 0, fmt.Errorf("netx: retire %s: headers: %w", addr, err)
	}
	moved := 0
	for _, hdr := range headers {
		block := hdr.Hash()
		resp, err := leaver.GetBlockChunks(block)
		if err != nil {
			cl.dropClient(addr)
			return moved, fmt.Errorf("netx: retire %s: chunks of %x: %w", addr, block[:4], err)
		}
		seed := block.Uint64()
		for _, chk := range resp.Chunks {
			gainers := membership.Gainers(seed, chk.Index, cl.replication, ids, shrunk, ids[li])
			for _, o := range gainers {
				to := cl.view.Addr(o)
				dst, cerr := cl.client(to)
				if cerr != nil {
					return moved, fmt.Errorf("netx: retire %s: dial gainer %s: %w", addr, to, cerr)
				}
				if perr := dst.PutChunk(chk.putReq(block)); perr != nil {
					cl.dropClient(to)
					return moved, fmt.Errorf("netx: retire %s: push chunk %d to %s: %w", addr, chk.Index, to, perr)
				}
			}
			if len(gainers) > 0 {
				moved++
			}
		}
	}
	if _, err := cl.PublishEpoch(shrunk, remaining); err != nil {
		return moved, err
	}
	return moved, nil
}

// RejoinMember re-provisions a member returning after a graceful departure
// and publishes the restored membership as a new epoch. cl must span the
// full post-rejoin membership including addr. Every block is resolved
// against the epoch it was written under — blocks distributed while the
// member was away have fewer parts, and their chunks may have migrated to
// new owners — so the rejoiner receives exactly the chunks it owns under
// the restored membership, fetched from either their write-epoch or
// post-migration holders. Returns the chunks transferred.
func (cl *Cluster) RejoinMember(addr string) (int, error) {
	li, err := cl.memberIndex(addr)
	if err != nil {
		return 0, err
	}
	ids := cl.identities()
	transferred, err := cl.provisionMember(addr, ids[li], ids)
	if err != nil {
		return transferred, err
	}
	if _, err := cl.PublishEpoch(ids, cl.addrs); err != nil {
		return transferred, err
	}
	return transferred, nil
}
