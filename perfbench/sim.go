package main

import (
	"fmt"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
	"icistrategy/internal/trace"
	"icistrategy/internal/workload"
)

// simFixture is the paper's own evaluation engine at the E4/E9 protocol
// scale: a core.System inside the discrete-event simulator, plus the
// transaction batches of every block it will produce, signed during set-up.
type simFixture struct {
	sz   sizes
	seed uint64
	sys  *core.System
	txs  [][]*chain.Transaction
	body int64 // body bytes of the blocks produced so far
}

func newSimFixture(seed uint64, sz sizes) (*simFixture, error) {
	gen, err := workload.NewGenerator(workload.Config{Accounts: 64, PayloadBytes: sz.payload, Seed: seed})
	if err != nil {
		return nil, err
	}
	f := &simFixture{sz: sz, seed: seed}
	for i := 0; i < sz.simOps; i++ {
		f.txs = append(f.txs, gen.NextTxs(sz.simTxPerBlock))
	}
	if f.sys, err = newSystem(seed, sz, nil); err != nil {
		return nil, err
	}
	return f, nil
}

func newSystem(seed uint64, sz sizes, tr *trace.Tracer) (*core.System, error) {
	return core.NewSystem(core.Config{
		Nodes:       sz.simNodes,
		Clusters:    sz.simNodes / sz.simClusterSize,
		Replication: sz.replication,
		Seed:        seed,
		Tracer:      tr,
	})
}

// simOp is one block on sys: produce it, drain the event queue, and check
// that every node committed it.
type simOp struct {
	produce, run time.Duration
	events       int
	body         int
}

func produceAndRun(sys *core.System, txs []*chain.Transaction, checkpoint func()) (simOp, error) {
	var o simOp
	t0 := time.Now()
	b, err := sys.ProduceBlock(txs)
	if err != nil {
		return o, err
	}
	checkpoint()
	t1 := time.Now()
	o.events = runUntilIdle(sys.Network(), checkpoint)
	o.produce, o.run, o.body = t1.Sub(t0), time.Since(t1), b.BodySize()
	if !sys.AllCommitted(b.Hash()) {
		return o, fmt.Errorf("%w: block %d not committed everywhere", errWrongResult, b.Header.Height)
	}
	return o, nil
}

// runUntilIdle drains the event queue as Network.RunUntilIdle does, one
// Step at a time, and calls checkpoint every 256 events so that a
// measuring loop may pause between them. It returns the events run.
func runUntilIdle(net *simnet.Network, checkpoint func()) int {
	events := 0
	for net.Step() {
		if events++; events%256 == 0 {
			checkpoint()
		}
	}
	return events
}

// commitVirtual produces one block and steps the simulator until every node
// committed it, returning the simulated commit latency and the events run.
// The queue is drained afterwards so the next block starts clean.
func commitVirtual(sys *core.System, txs []*chain.Transaction) (time.Duration, int, error) {
	net := sys.Network()
	start := net.Now()
	b, err := sys.ProduceBlock(txs)
	if err != nil {
		return 0, 0, err
	}
	var at time.Duration
	committed, events := false, 0
	for net.Step() {
		events++
		if !committed && sys.AllCommitted(b.Hash()) {
			at, committed = net.Now(), true
		}
	}
	if !committed {
		return 0, events, fmt.Errorf("%w: block %d not committed everywhere", errWrongResult, b.Header.Height)
	}
	return at - start, events, nil
}

func (f *simFixture) op(i int, checkpoint func()) error {
	o, err := produceAndRun(f.sys, f.txs[i], checkpoint)
	f.body += int64(o.body)
	return err
}

func (f *simFixture) measure(seconds float64) loopStats {
	return runCounted(f.sz.simOps, f.op)
}

func (f *simFixture) verify() (int64, int64) { return 0, 0 }

// storedRatio sums header and chunk bytes over every node.
func (f *simFixture) storedRatio() float64 {
	var stored int64
	for c := 0; c < f.sys.NumClusters(); c++ {
		members, err := f.sys.ClusterMembers(c)
		if err != nil {
			return 0
		}
		for _, id := range members {
			st, err := f.sys.NodeStorage(id)
			if err != nil {
				return 0
			}
			stored += st.TotalBytes()
		}
	}
	return float64(stored) / float64(f.body)
}

func (f *simFixture) close() {}
