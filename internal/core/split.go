// Package core implements ICIStrategy, the paper's contribution: intra-
// cluster-integrity collaborative storage for a blockchain network.
//
// The strategy partitions all participants into clusters (internal/cluster).
// Every cluster collectively stores every finalized block: the block body is
// split into as many chunks as the cluster has members, and each chunk is
// placed on r members by rendezvous hashing (internal/membership). Members
// collaboratively verify a new block — each checks only its own chunk
// (transaction signatures plus Merkle membership against the header root)
// and votes; the cluster leader commits on a BFT quorum
// (internal/consensus). A node bootstraps by fetching all headers plus only
// its own chunks, and repairs rebuild lost chunks from replicas inside the
// cluster.
//
// The package exposes two layers that share this placement logic:
//
//   - Accountant: exact byte-level storage/bootstrap accounting at any
//     scale (no data moved) — drives the storage experiments.
//   - System/Node: the full protocol over the simulated network with real
//     chunk bytes, signatures, proofs, votes, retrieval, bootstrap and
//     repair — drives the communication and latency experiments.
package core

import (
	"errors"
	"fmt"
)

// ErrBadParts rejects a non-positive chunk count.
var ErrBadParts = errors.New("core: part count must be positive")

// SplitCounts divides total items into parts balanced groups: the first
// total%parts groups get one extra item. Used both to split a transaction
// list into chunk groups and to split a byte size for analytic accounting.
func SplitCounts(total, parts int) ([]int, error) {
	if parts <= 0 {
		return nil, ErrBadParts
	}
	out := make([]int, parts)
	base, extra := total/parts, total%parts
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out, nil
}

// ChunkRange returns the [start, end) item range of chunk chunkIdx under
// SplitCounts(total, parts).
func ChunkRange(total, parts, chunkIdx int) (start, end int, err error) {
	counts, err := SplitCounts(total, parts)
	if err != nil {
		return 0, 0, err
	}
	if chunkIdx < 0 || chunkIdx >= parts {
		return 0, 0, fmt.Errorf("core: chunk index %d out of [0,%d)", chunkIdx, parts)
	}
	for i := 0; i < chunkIdx; i++ {
		start += counts[i]
	}
	return start, start + counts[chunkIdx], nil
}
