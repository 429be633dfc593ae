package main

import (
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/gateway"
	"icistrategy/internal/metrics"
	"icistrategy/internal/netx"
	"icistrategy/internal/workload"
)

// errWrongResult marks an operation that completed but returned data that
// does not match what was written.
var errWrongResult = errors.New("perfbench: wrong result")

// tcpCluster is a set of in-process netx storage servers on loopback.
type tcpCluster struct {
	servers []*netx.Server
	addrs   []string
}

func startCluster(n int) (*tcpCluster, error) {
	c := &tcpCluster{}
	for i := 0; i < n; i++ {
		s, err := netx.NewServer("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, s)
		c.addrs = append(c.addrs, s.Addr())
	}
	return c, nil
}

func (c *tcpCluster) close() {
	for _, s := range c.servers {
		_ = s.Close() // teardown: a drain error changes nothing measured
	}
}

// storedBytes sums header and chunk bytes over every member.
func (c *tcpCluster) storedBytes() int64 {
	var n int64
	for _, s := range c.servers {
		n += s.Stats().TotalBytes()
	}
	return n
}

// e15Chain generates the E15 read-path chain from seed: blocks × txs
// signed transfers with fixed-size payloads.
func e15Chain(seed uint64, sz sizes) ([]*chain.Block, error) {
	gen, err := workload.NewGenerator(workload.Config{Accounts: 64, PayloadBytes: sz.payload, Seed: seed})
	if err != nil {
		return nil, err
	}
	cb, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		return nil, err
	}
	blocks := make([]*chain.Block, sz.blocks)
	for i := range blocks {
		if blocks[i], err = cb.NextBlock(sz.txPerBlock); err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

func bodyBytes(blocks []*chain.Block) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(b.BodySize())
	}
	return n
}

// sameBlock checks a returned block against the one written: the header
// hash, the transaction count and the last transaction's ID.
func sameBlock(got, want *chain.Block) error {
	if got.Hash() != want.Hash() || len(got.Txs) != len(want.Txs) ||
		got.Txs[len(got.Txs)-1].ID() != want.Txs[len(want.Txs)-1].ID() {
		return fmt.Errorf("%w: block %s", errWrongResult, want.Hash().Short())
	}
	return nil
}

// readFixture is the read-path deployment: the E15 chain distributed over
// the storage cluster, a gateway reading through a timed ClusterUpstream,
// the gateway's TCP listener and closed-loop wire clients.
type readFixture struct {
	sz      sizes
	cluster *tcpCluster
	blocks  []*chain.Block
	up      *timedUpstream
	reg     *metrics.Registry
	gw      *gateway.Gateway
	srv     *gateway.Server
	clients []*gateway.Client
	pickers []*workload.ZipfPicker
}

// newReadFixture builds the read deployment. hot turns both gateway caches
// on and reads with Zipf-skewed keys; cold turns them off and reads
// uniformly. Every client reads every block once before it returns, so
// connections, the header index and (when hot) the caches are warm.
func newReadFixture(seed uint64, hot bool, sz sizes) (f *readFixture, err error) {
	f = &readFixture{sz: sz, reg: metrics.NewRegistry()}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.cluster, err = startCluster(sz.servers); err != nil {
		return nil, err
	}
	if f.blocks, err = e15Chain(seed, sz); err != nil {
		return nil, err
	}
	cl, err := netx.NewCluster(f.cluster.addrs, sz.replication)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	for _, b := range f.blocks {
		if err := cl.DistributeBlock(b); err != nil {
			return nil, err
		}
	}
	cu, err := gateway.NewClusterUpstream(f.cluster.addrs, sz.replication)
	if err != nil {
		return nil, err
	}
	f.up = &timedUpstream{ClusterUpstream: cu}
	var cache int64
	zipf := 0.0
	if hot {
		cache, zipf = sz.cacheBytes, sz.zipfS
	}
	if f.gw, err = gateway.New(gateway.Config{
		Upstream: f.up, BlockCacheBytes: cache, ChunkCacheBytes: cache, Registry: f.reg,
	}); err != nil {
		return nil, err
	}
	if f.srv, err = gateway.NewServer("127.0.0.1:0", f.gw); err != nil {
		return nil, err
	}
	for ci := 0; ci < sz.readClients; ci++ {
		c, err := gateway.DialClient(f.srv.Addr())
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
		p, err := workload.NewZipfPicker(len(f.blocks), zipf, seed+uint64(ci+1)*7919)
		if err != nil {
			return nil, err
		}
		f.pickers = append(f.pickers, p)
		for _, b := range f.blocks {
			if err := f.read(c, b); err != nil {
				return nil, fmt.Errorf("warm-up read: %w", err)
			}
		}
	}
	return f, nil
}

// read fetches b through the wire client and checks the answer.
func (f *readFixture) read(c *gateway.Client, b *chain.Block) error {
	got, err := c.GetBlock(b.Hash())
	if err != nil {
		return err
	}
	return sameBlock(got, b)
}

// op is one read by client ci of a key drawn from its own picker.
func (f *readFixture) op(ci, _ int) error {
	return f.read(f.clients[ci], f.blocks[f.pickers[ci].Pick()])
}

func (f *readFixture) measure(seconds float64) loopStats {
	return runTimed(len(f.clients), seconds, f.sz.minOps, f.op)
}

func (f *readFixture) verify() (int64, int64) { return 0, 0 }

func (f *readFixture) storedRatio() float64 {
	return float64(f.cluster.storedBytes()) / float64(bodyBytes(f.blocks))
}

func (f *readFixture) close() {
	for _, c := range f.clients {
		_ = c.Close()
	}
	if f.srv != nil {
		_ = f.srv.Close()
	}
	if f.up != nil {
		f.up.Close()
	}
	if f.cluster != nil {
		f.cluster.close()
	}
}

// ingestFixture is the write-path deployment: an empty storage cluster and
// the blocks to distribute, built during set-up so signing is not timed.
// Block i carries the transactions of E15 block i mod len(E15) under its
// own header, so every block is distinct while set-up signs only the E15
// chain.
type ingestFixture struct {
	sz      sizes
	cluster *tcpCluster
	cl      *netx.Cluster
	blocks  []*chain.Block
	written int
}

func newIngestFixture(seed uint64, sz sizes) (f *ingestFixture, err error) {
	f = &ingestFixture{sz: sz}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.cluster, err = startCluster(sz.servers); err != nil {
		return nil, err
	}
	if f.cl, err = netx.NewCluster(f.cluster.addrs, sz.replication); err != nil {
		return nil, err
	}
	pool, err := e15Chain(seed, sz)
	if err != nil {
		return nil, err
	}
	prev := blockcrypto.ZeroHash
	for i := 0; i < sz.ingestBlocks; i++ {
		b, err := chain.NewBlock(uint64(i), prev, pool[i%len(pool)].Txs, uint64(i)*10_000, uint64(i%97))
		if err != nil {
			return nil, err
		}
		f.blocks = append(f.blocks, b)
		prev = b.Hash()
	}
	return f, nil
}

// op distributes the next unwritten block. It is short, so it takes no
// checkpoint.
func (f *ingestFixture) op(int, func()) error {
	if f.written >= len(f.blocks) {
		return errors.New("perfbench: ingest ran out of blocks")
	}
	b := f.blocks[f.written]
	f.written++
	return f.cl.DistributeBlock(b)
}

func (f *ingestFixture) measure(seconds float64) loopStats {
	return runCounted(f.sz.ingestOps, f.op)
}

// verify reads every written block back through Cluster.RetrieveBlock.
func (f *ingestFixture) verify() (checked, failed int64) {
	for _, b := range f.blocks[:f.written] {
		checked++
		got, err := f.cl.RetrieveBlock(b.Header)
		if err == nil {
			err = sameBlock(got, b)
		}
		if err != nil {
			failed++
		}
	}
	return checked, failed
}

func (f *ingestFixture) storedRatio() float64 {
	return float64(f.cluster.storedBytes()) / float64(bodyBytes(f.blocks[:f.written]))
}

func (f *ingestFixture) close() {
	if f.cl != nil {
		f.cl.Close()
	}
	if f.cluster != nil {
		f.cluster.close()
	}
}
