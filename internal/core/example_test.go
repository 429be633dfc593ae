package core_test

import (
	"fmt"
	"log"

	"icistrategy/internal/core"
	"icistrategy/internal/workload"
)

// ExampleSplitCounts shows the balanced integer split used for both
// transaction-group chunking and analytic storage accounting.
func ExampleSplitCounts() {
	counts, err := core.SplitCounts(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(counts)
	// Output: [3 3 2 2]
}

// ExampleSystem drives the whole protocol: build a clustered network,
// commit a block collaboratively, and check the integrity invariant.
func ExampleSystem() {
	sys, err := core.NewSystem(core.Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 20, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	b, err := sys.ProduceBlock(gen.NextTxs(12))
	if err != nil {
		log.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	fmt.Println("committed by all:", sys.AllCommitted(b.Hash()))
	fmt.Println("cluster 0 holds the block:", sys.ClusterHoldsBlock(0, b.Hash()) == nil)
	// Output:
	// committed by all: true
	// cluster 0 holds the block: true
}
