// Package netx runs the ICIStrategy storage protocol over real TCP: every
// cluster member is a Server owning a chunk/header store, and clients
// (block distributors, readers, bootstrapping nodes) speak a length-prefixed
// gob protocol to it. The discrete-event simulator (internal/simnet) is the
// tool for measuring the strategy at scale; netx exists to prove the same
// storage layout, placement, and verification logic works end-to-end on a
// real network stack, and to power the cmd/icinet demo.
package netx

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/membership"
	"icistrategy/internal/simnet"
)

// Protocol errors.
var (
	ErrTooLarge   = errors.New("netx: message exceeds size limit")
	ErrBadRequest = errors.New("netx: malformed request")
	ErrNotFound   = errors.New("netx: not found")
)

// maxMessageSize bounds a single protocol message (64 MiB — far above any
// realistic block).
const maxMessageSize = 64 << 20

// Request is the union of client requests; exactly one field is set.
type Request struct {
	PutHeader      *PutHeaderReq
	PutChunk       *PutChunkReq
	GetHeaders     *GetHeadersReq
	GetChunk       *GetChunkReq
	GetChunkBatch  *ChunkBatchReq
	GetBlockChunks *GetBlockChunksReq
	GetTxProof     *TxProofReq
	GetClusterMap  *ClusterMapReq
	SetClusterMap  *SetClusterMapReq
	Stats          *StatsReq
	Fault          *FaultReq
}

// Response is the union of server responses; Err is set on failure.
type Response struct {
	Err         string
	OK          *struct{}
	Headers     []chain.Header
	Chunk       *ChunkResp
	ChunkBatch  *ChunkBatchResp
	BlockChunks *BlockChunksResp
	TxProof     *TxProofResp
	ClusterMap  *ClusterMapResp
	Stats       *StatsResp
	Faults      *FaultResp
}

// PutHeaderReq stores a block header.
type PutHeaderReq struct {
	Header chain.Header
}

// PutChunkReq stores one chunk of a block's body: the encoded transaction
// group plus the positions and Merkle proofs needed to serve verifiable
// reads later.
type PutChunkReq struct {
	Block   blockcrypto.Hash
	Index   int
	Parts   int
	TxStart int
	Data    []byte // chain sub-body encoding of the transaction group
	Proofs  []chain.Proof
}

// GetHeadersReq fetches all headers at or above FromHeight.
type GetHeadersReq struct {
	FromHeight uint64
}

// GetChunkReq fetches one stored chunk.
type GetChunkReq struct {
	Block blockcrypto.Hash
	Index int
}

// ChunkResp returns a stored chunk.
type ChunkResp struct {
	Index   int
	Parts   int
	TxStart int
	Data    []byte
	Proofs  []chain.Proof
}

// putReq re-addresses a fetched chunk of block as a store request.
func (c *ChunkResp) putReq(block blockcrypto.Hash) PutChunkReq {
	return PutChunkReq{Block: block, Index: c.Index, Parts: c.Parts, TxStart: c.TxStart, Data: c.Data, Proofs: c.Proofs}
}

// ChunkRef names one stored chunk, possibly of a different block than its
// batch siblings.
type ChunkRef struct {
	Block blockcrypto.Hash
	Index int
}

// ChunkBatchReq fetches several stored chunks in one round trip — the wire
// op behind the gateway's cross-request batching: wants for the same peer
// that accumulate while a round trip is in flight ride the next frame
// together instead of paying one round trip each.
type ChunkBatchReq struct {
	Refs []ChunkRef
}

// maxBatchRefs bounds one batch so a malicious or buggy client cannot make
// the server assemble an unbounded response.
const maxBatchRefs = 4096

// ChunkBatchResp answers a batch fetch position-for-position: Chunks[i]
// answers Refs[i], and Found[i] is false (with a zero Chunks[i]) when this
// server does not hold that chunk. Partial answers are expected — the
// client falls back to the other owners for the holes.
type ChunkBatchResp struct {
	Found  []bool
	Chunks []ChunkResp
}

// TxProofReq asks for the transaction with the given ID inside a block,
// plus the stored Merkle proof connecting it to the block's root — the
// light-client read: no whole block crosses the wire.
type TxProofReq struct {
	Block blockcrypto.Hash
	TxID  blockcrypto.Hash
}

// TxProofResp answers a proof query. Found is false when this server's
// chunks do not contain the transaction (another owner may still hold it).
type TxProofResp struct {
	Found bool
	Tx    *chain.Transaction
	Proof chain.Proof
}

// GetBlockChunksReq fetches every chunk the server holds for a block.
type GetBlockChunksReq struct {
	Block blockcrypto.Hash
}

// BlockChunksResp returns all held chunks of one block.
type BlockChunksResp struct {
	Parts  int
	Chunks []ChunkResp
}

// MemberInfo names one cluster member on the wire: its stable placement
// identity and the address it serves on. The identity — not the address or
// a positional index — is what rendezvous placement hashes, so a member
// that moves or rejoins keeps its chunks.
type MemberInfo struct {
	ID   uint64
	Addr string
}

// EpochInfo is one entry of the epoch-versioned cluster map: the member set
// that governs blocks written at or above FromHeight. The full epoch
// history travels together so readers can resolve any historic block
// against the membership it was written under. EpochInfo is only the wire
// format; ParseClusterMap turns it into a membership.Map.
type EpochInfo struct {
	Epoch      int
	FromHeight uint64
	Members    []MemberInfo
}

// ParseClusterMap validates a wire cluster map into a membership.Map — the
// one conversion from the wire format. Servers refuse, and readers ignore,
// any map it rejects (see membership.New for the invariants).
func ParseClusterMap(epochs []EpochInfo) (*membership.Map, error) {
	if len(epochs) > maxMapEpochs {
		return nil, fmt.Errorf("%w: %d epochs", membership.ErrBadMap, len(epochs))
	}
	es := make([]membership.Epoch, len(epochs))
	for i, e := range epochs {
		es[i] = membership.Epoch{Seq: e.Epoch, FromHeight: e.FromHeight,
			Members: make([]simnet.NodeID, len(e.Members)), Addrs: make([]string, len(e.Members))}
		for j, m := range e.Members {
			es[i].Members[j], es[i].Addrs[j] = simnet.NodeID(m.ID), m.Addr
		}
	}
	return membership.New(es)
}

// wireMap is the inverse of ParseClusterMap.
func wireMap(m *membership.Map) []EpochInfo {
	out := make([]EpochInfo, m.Len())
	for i := range out {
		e := m.Epoch(i)
		out[i] = EpochInfo{Epoch: e.Seq, FromHeight: e.FromHeight, Members: make([]MemberInfo, len(e.Members))}
		for j, id := range e.Members {
			out[i].Members[j] = MemberInfo{ID: uint64(id), Addr: e.Addrs[j]}
		}
	}
	return out
}

// ClusterMapReq fetches the server's epoch-versioned cluster map.
type ClusterMapReq struct{}

// ClusterMapResp returns the stored cluster map, oldest epoch first. Empty
// when no map was ever published to this server.
type ClusterMapResp struct {
	Epochs []EpochInfo
}

// SetClusterMapReq publishes a cluster map. Servers keep the newest map
// they have seen: a request whose final epoch number does not exceed the
// stored one is acknowledged but ignored, so republishing after partitions
// or restarts is always safe.
type SetClusterMapReq struct {
	Epochs []EpochInfo
}

// maxMapEpochs bounds a published map so a buggy client cannot grow server
// state without limit; real churn histories are far smaller.
const maxMapEpochs = 65536

// StatsReq asks for the server's storage accounting.
type StatsReq struct{}

// StatsResp reports storage usage.
type StatsResp struct {
	HeaderCount int64
	HeaderBytes int64
	ChunkCount  int64
	ChunkBytes  int64
}

// FaultReq is the chaos control op (see faults.go): it installs a fault
// configuration, corrupts already-stored chunks, or both. Servers reject it
// unless EnableChaos was called at startup.
type FaultReq struct {
	// Set installs this fault config (a zero config clears faults).
	Set *FaultConfig
	// CorruptStored flips one byte in every stored chunk, turning this
	// server into a byzantine member whose shards fail verification.
	CorruptStored bool
}

// FaultResp acknowledges a FaultReq.
type FaultResp struct {
	// Corrupted counts the chunks CorruptStored damaged.
	Corrupted int
}

// WriteMessage frames and gob-encodes v onto w with the netx wire format.
// Exported for protocol layers stacked on the same framing (the gateway's
// client-facing listener); servers and clients in this package use the
// unexported forms directly.
func WriteMessage(w io.Writer, v any) error { return writeMessage(w, v) }

// ReadMessage reads one length-prefixed gob message into v (see
// WriteMessage).
func ReadMessage(r io.Reader, v any) error { return readMessage(r, v) }

// writeMessage frames and gob-encodes v onto w: 4-byte big-endian length,
// then the gob bytes.
func writeMessage(w io.Writer, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("netx: encode: %w", err)
	}
	if buf.Len() > maxMessageSize {
		return ErrTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readMessage reads one length-prefixed gob message into v. The body is
// accumulated with io.CopyN rather than allocated up front, so a frame
// header claiming a huge length on a short (or malicious) stream costs only
// the bytes that actually arrive, never a maxMessageSize allocation.
func readMessage(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxMessageSize {
		return ErrTooLarge
	}
	var buf bytes.Buffer
	copied, err := io.CopyN(&buf, r, int64(n))
	if err != nil {
		if err == io.EOF && copied < int64(n) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return gob.NewDecoder(&buf).Decode(v)
}
