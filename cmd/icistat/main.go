// Command icistat inspects the static structure of an ICIStrategy
// deployment without producing any blocks: the cluster partition, its
// latency quality, the chunk-ownership balance of the rendezvous placement,
// and the analytic per-node storage projection for a target chain length.
//
// Usage:
//
//	icistat [-nodes 1024] [-clusters 16] [-replication 1]
//	        [-blocks 1000] [-blocksize 1048576] [-seed 42] [-method balanced-kmeans]
package main

import (
	"flag"
	"fmt"
	"os"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/cluster"
	"icistrategy/internal/core"
	"icistrategy/internal/membership"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
	"icistrategy/internal/strategy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icistat:", err)
		os.Exit(1)
	}
}

func parseMethod(s string) (cluster.Method, error) {
	for _, m := range []cluster.Method{
		cluster.KMeans, cluster.BalancedKMeans, cluster.RandomPartition, cluster.HashPartition,
	} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (kmeans, balanced-kmeans, random, hash)", s)
}

func run(args []string) error {
	fs := flag.NewFlagSet("icistat", flag.ContinueOnError)
	nodes := fs.Int("nodes", 1024, "network size")
	clusters := fs.Int("clusters", 16, "number of clusters")
	replication := fs.Int("replication", 1, "replication factor")
	blocks := fs.Int("blocks", 1000, "projected chain length")
	blockSize := fs.Int64("blocksize", 1<<20, "projected block body bytes")
	seed := fs.Uint64("seed", 42, "seed")
	methodName := fs.String("method", "balanced-kmeans", "clustering method")
	if err := fs.Parse(args); err != nil {
		return err
	}
	method, err := parseMethod(*methodName)
	if err != nil {
		return err
	}

	rng := blockcrypto.NewRNG(*seed)
	coords := simnet.RandomCoords(*nodes, 60, rng.Fork("coords"))
	asg, err := cluster.Partition(method, coords, *clusters, rng.Fork("partition"))
	if err != nil {
		return err
	}
	q := cluster.Evaluate(asg, coords)

	pt := metrics.NewTable(
		fmt.Sprintf("partition (%s, n=%d, m=%d)", method, *nodes, *clusters),
		"metric", "value")
	pt.AddRow("mean intra-cluster distance (ms)", q.MeanIntraDistance)
	pt.AddRow("max intra-cluster distance (ms)", q.MaxIntraDistance)
	pt.AddRow("silhouette", q.Silhouette)
	pt.AddRow("size imbalance", q.SizeImbalance)
	sizes := metrics.Histogram{}
	for c := 0; c < asg.NumClusters(); c++ {
		sizes.Observe(float64(asg.Size(c)))
	}
	pt.AddRow("cluster size min/mean/max",
		fmt.Sprintf("%.0f / %.1f / %.0f", sizes.Min(), sizes.Mean(), sizes.Max()))
	fmt.Println(pt.String())

	// Storage projection.
	acc, err := core.NewAccountant(asg, *replication)
	if err != nil {
		return err
	}
	for b := 0; b < *blocks; b++ {
		acc.AddBlock(*blockSize)
	}
	mean, err := strategy.MeanNodeBytes(acc)
	if err != nil {
		return err
	}
	maxB, err := strategy.MaxNodeBytes(acc)
	if err != nil {
		return err
	}
	total := float64(*blocks) * float64(*blockSize)
	st := metrics.NewTable(
		fmt.Sprintf("storage projection (%d blocks of %s, r=%d)",
			*blocks, metrics.HumanBytes(float64(*blockSize)), *replication),
		"metric", "value")
	st.AddRow("total chain body", metrics.HumanBytes(total))
	st.AddRow("full-replication per node", metrics.HumanBytes(total))
	st.AddRow("ici mean per node", metrics.HumanBytes(mean))
	st.AddRow("ici max per node", metrics.HumanBytes(float64(maxB)))
	st.AddRow("saving vs full replication", fmt.Sprintf("%.1fx", total/mean))
	fmt.Println(st.String())

	// Ownership balance of the rendezvous placement over the first cluster.
	members := make([]simnet.NodeID, 0, asg.Size(0))
	for _, m := range asg.Members[0] {
		members = append(members, simnet.NodeID(m))
	}
	counts := make(map[simnet.NodeID]int, len(members))
	probes := 500
	for b := 0; b < probes; b++ {
		for idx := 0; idx < len(members); idx++ {
			owners, err := membership.Owners(rng.Uint64(), members, idx, *replication)
			if err != nil {
				return err
			}
			for _, o := range owners {
				counts[o]++
			}
		}
	}
	var loads metrics.Histogram
	for _, c := range counts {
		loads.Observe(float64(c))
	}
	ot := metrics.NewTable(
		fmt.Sprintf("chunk ownership balance (cluster 0, %d members, %d probe blocks)", len(members), probes),
		"metric", "value")
	ot.AddRow("min load", loads.Min())
	ot.AddRow("mean load", loads.Mean())
	ot.AddRow("max load", loads.Max())
	ot.AddRow("stddev / mean", loads.Stddev()/loads.Mean())
	fmt.Println(ot.String())
	return nil
}
