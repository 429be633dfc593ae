package analyzers_test

import (
	"testing"

	"icistrategy/internal/analysis/analysistest"
	"icistrategy/internal/analysis/analyzers"
)

// The membership fixture reproduces the PR-8 stale-placement bug: an
// epoch-aware retrieval path ranking owners over the live roster instead
// of the block's write-epoch members, next to the resolved fixed shapes
// and the write path that must stay silent.
func TestEpochRes(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.EpochRes, "membership")
}
