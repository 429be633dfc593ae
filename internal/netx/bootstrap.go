package netx

import (
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/membership"
	"icistrategy/internal/simnet"
)

// This file is the real-TCP bootstrap path: provisioning a storage server
// with the headers and chunks it is responsible for, fetched from live
// cluster members, verify-on-write. Two entry points share the machinery:
//
//   - BootstrapNewMember: a brand-new node joins a cluster of N as member
//     N — ownership is computed under the grown membership (the
//     re-placement case).
//   - ResyncMember: an existing member restarted with an empty store
//     re-fetches the chunks it owns under the unchanged membership (the
//     crash-recovery case).

// BootstrapNewMember provisions a brand-new storage server as the next
// member of this cluster, over TCP: it syncs every header from an existing
// member (validating the hash chain), computes which chunks the newcomer
// owns under the grown membership with the same rendezvous placement the
// simulator's join protocol uses, fetches each from a current owner, and
// pushes it — verify-on-write — into the new server. It returns how many
// chunks were transferred.
//
// The cluster's own membership view is not mutated: callers that want the
// newcomer to serve future blocks build a new Cluster over addrs +
// newAddr.
func (cl *Cluster) BootstrapNewMember(newAddr string) (int, error) {
	ids := cl.identities()
	// The newcomer keeps any identity an earlier epoch gave its address,
	// else takes the next unused one.
	grown := cl.known.Identify(append(cl.addrs[:len(cl.addrs):len(cl.addrs)], newAddr))
	return cl.provisionMember(newAddr, grown[len(ids)], grown)
}

// ResyncMember re-provisions an existing member whose local store was lost
// (crash, restart, disk wipe): headers are synced from a surviving member
// and every chunk the member owns under the current membership is fetched
// from another replica and pushed back, verify-on-write. addr must be the
// member's own address and id its placement identity — cl must span the
// full membership including it. It returns how many chunks were
// transferred.
//
// A chunk whose only owners were the lost member itself (replication 1)
// cannot be recovered and fails the resync.
func (cl *Cluster) ResyncMember(addr string, id simnet.NodeID) (int, error) {
	i, err := cl.memberIndex(addr)
	if err != nil {
		return 0, fmt.Errorf("netx: resync: %w", err)
	}
	if got := cl.identities()[i]; got != id {
		return 0, fmt.Errorf("netx: resync: %s is member %d, not %d", addr, got, id)
	}
	return cl.provisionMember(addr, id, cl.identities())
}

// provisionMember pushes headers plus the chunks self owns (ownership is
// rendezvous placement over the ownership id set) into the server at
// target. Every block resolves against the epoch it was written under, so
// blocks distributed while the member was away keep their part count, and
// each chunk is fetched from its write-epoch owners or, after a migration,
// its newest-epoch owners — never from target itself.
func (cl *Cluster) provisionMember(target string, self simnet.NodeID, ownership []simnet.NodeID) (int, error) {
	cl.identities()
	m, err := cl.orGenesis(cl.known) // the map the blocks were written under
	if err != nil {
		return 0, err
	}
	targetClient, err := Dial(target)
	if err != nil {
		return 0, fmt.Errorf("netx: bootstrap: dial member %s: %w", target, err)
	}
	defer targetClient.Close()

	headers, err := cl.syncHeaders(targetClient, target)
	if err != nil {
		return 0, err
	}

	transferred := 0
	for _, h := range headers {
		block := h.Hash()
		seed := block.Uint64()
		wrote := m.At(h.Height)
		for idx := 0; idx < wrote.Parts(); idx++ {
			owns, oerr := membership.IsOwner(seed, ownership, idx, cl.replication, self)
			if oerr != nil {
				return transferred, oerr
			}
			if !owns {
				continue
			}
			sources := membership.Sources(seed, idx, cl.replication, wrote, m.Newest(), self)
			chunk, ferr := cl.fetchChunk(block, idx, sources, m)
			if ferr != nil {
				return transferred, fmt.Errorf("netx: bootstrap: %w", ferr)
			}
			// The target server verifies proofs against the header on write.
			if err := targetClient.PutChunk(chunk.putReq(block)); err != nil {
				return transferred, fmt.Errorf("netx: bootstrap: push chunk %d to %s: %w", idx, target, err)
			}
			transferred++
		}
	}
	return transferred, nil
}

// fetchChunk gathers chunk idx of block from the first of sources that
// serves it, resolving each source's address in m.
func (cl *Cluster) fetchChunk(block blockcrypto.Hash, idx int, sources []simnet.NodeID, m *membership.Map) (*ChunkResp, error) {
	for _, o := range sources {
		a := m.Addr(o)
		c, err := cl.client(a)
		if err != nil {
			continue
		}
		resp, err := c.GetChunk(block, idx)
		if err != nil {
			cl.dropClient(a)
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("chunk %d of %s unavailable from any owner", idx, block.Short())
}

// syncHeaders copies the header chain from the first reachable member
// (skipping target itself) into targetClient, validating genesis anchoring
// and hash-chain linkage on the way.
func (cl *Cluster) syncHeaders(targetClient *Client, target string) ([]chain.Header, error) {
	var headers []chain.Header
	synced := false
	var lastErr error
	for _, addr := range cl.addrs {
		if addr == target {
			continue
		}
		c, cerr := cl.client(addr)
		if cerr != nil {
			lastErr = cerr
			continue
		}
		hs, herr := c.GetHeaders(0)
		if herr != nil {
			lastErr = fmt.Errorf("get headers from %s: %w", addr, herr)
			cl.dropClient(addr)
			continue
		}
		headers = hs
		synced = true
		break
	}
	if !synced {
		if lastErr != nil {
			return nil, fmt.Errorf("netx: bootstrap: no member served headers: %w", lastErr)
		}
		return nil, fmt.Errorf("netx: bootstrap: %w", ErrNoServers)
	}
	var prev *chain.Header
	for i := range headers {
		h := headers[i]
		if prev != nil {
			blk := chain.Block{Header: h}
			if err := blk.VerifyLink(prev); err != nil {
				return nil, fmt.Errorf("netx: bootstrap: header %d: %w", i, err)
			}
		} else if h.Height != 0 || !h.PrevHash.IsZero() {
			return nil, fmt.Errorf("netx: bootstrap: chain does not start at genesis")
		}
		if err := targetClient.PutHeader(h); err != nil {
			return nil, fmt.Errorf("netx: bootstrap: push header %d: %w", i, err)
		}
		prev = &headers[i]
	}
	return headers, nil
}
