package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/debug"
	"testing"
	"time"
)

// testSizes keeps the E15 shapes but shrinks the simulated network, so the
// tests run in seconds.
func testSizes() sizes {
	sz := defaultSizes()
	sz.simNodes, sz.simTxPerBlock = 64, 64
	sz.briefIngestOps = 10
	return sz
}

// exactRun collects the exact counts and the stored-bytes ratio of one
// seed: the ingest and sim-commit layer passes, then a short ingest run.
func exactRun(t *testing.T, seed uint64) map[string]float64 {
	t.Helper()
	sz := testSizes()
	got := map[string]float64{}
	for _, w := range []string{"ingest", "sim-commit"} {
		lr, err := runLayers(w, seed, 1, true, sz)
		if err != nil {
			t.Fatalf("%s layers: %v", w, err)
		}
		if lr.failed != 0 {
			t.Fatalf("%s layers: %d failed checks", w, lr.failed)
		}
		for _, n := range exactCounts {
			if v, ok := lr.metrics[n]; ok {
				got[n] = v
			}
		}
	}
	sz.ingestOps, sz.ingestBlocks = 12, 12
	f, err := newIngestFixture(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if st := f.measure(1); st.failed != 0 {
		t.Fatalf("ingest: %d failed ops", st.failed)
	}
	if checked, failed := f.verify(); checked != 12 || failed != 0 {
		t.Fatalf("ingest verify: %d checked, %d failed", checked, failed)
	}
	got["stored_bytes_per_user_byte"] = f.storedRatio()
	return got
}

func TestExactCountsRepeatForOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TCP and simulated clusters")
	}
	a, b := exactRun(t, 7), exactRun(t, 7)
	if len(a) != len(exactCounts)+1 {
		t.Fatalf("got %d exact counts, want %d: %v", len(a), len(exactCounts)+1, a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("exact counts differ between two runs of seed 7:\n%v\n%v", a, b)
	}
}

// TestReadColdLayers runs the read path's brief layer passes: two wire
// clients, the timed upstream and the in-process replay, and checks that
// every read-cold metric comes out. Coalescing needs two clients to ask for
// one block at once, which a brief run may never do, so it may be zero.
func TestReadColdLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TCP cluster")
	}
	lr, err := runLayers("read-cold", 3, 1, true, testSizes())
	if err != nil {
		t.Fatal(err)
	}
	if lr.failed != 0 || lr.checked == 0 {
		t.Fatalf("%d of %d checked reads failed", lr.failed, lr.checked)
	}
	for _, lm := range layerMetrics {
		if lm.home != "read-cold" {
			continue
		}
		v, ok := lr.metrics[lm.name]
		if !ok || v < 0 || (v == 0 && lm.name != "gateway.coalesced_per_kop") {
			t.Errorf("%s = %v, %v; want a positive value", lm.name, v, ok)
		}
	}
}

func TestSeedChangesTheChain(t *testing.T) {
	sz := defaultSizes()
	a, err := e15Chain(1, sz)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e15Chain(2, sz)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e15Chain(1, sz)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != sz.blocks || len(a[0].Txs) != sz.txPerBlock {
		t.Fatalf("chain shape %d x %d, want %d x %d", len(a), len(a[0].Txs), sz.blocks, sz.txPerBlock)
	}
	for i := range a {
		if a[i].Hash() != again[i].Hash() {
			t.Fatalf("block %d differs between two chains of seed 1", i)
		}
		if a[i].Hash() == b[i].Hash() {
			t.Fatalf("block %d is the same for seeds 1 and 2", i)
		}
	}
}

func TestWindowScalesEachSegmentBySpeed(t *testing.T) {
	ms := time.Millisecond
	// Two 100 ms segments, measured while the machine ran at 1.5 and 0.7
	// of refSpeed, and three ops: 0-50 ms, 50-150 ms (across the
	// boundary) and 150-200 ms.
	st := loopStats{
		opStart:  []time.Duration{0, 50 * ms, 150 * ms},
		opEnd:    []time.Duration{50 * ms, 150 * ms, 200 * ms},
		segEnd:   []time.Duration{100 * ms, 200 * ms},
		segCPU:   []time.Duration{40 * ms, 160 * ms},
		segSpeed: []float64{1.5, 0.7},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	raw := st.window(false)
	if raw.ops != 3 || !near(raw.rate, 15) || !near(raw.cpuPerOp, 200.0/3) ||
		!reflect.DeepEqual(raw.lat, []float64{50, 100, 50}) {
		t.Fatalf("unscaled window = %+v, want 3 ops at 15/s, 66.7 ms CPU per op, latencies 50, 100, 50", raw)
	}
	// Scaled: 150 + 70 ms of wall time, 60 + 112 ms of CPU; the middle op
	// is 50 ms at 1.5 plus 50 ms at 0.7.
	w := st.window(true)
	if w.ops != 3 || !near(w.rate, 3/0.22) || !near(w.cpuPerOp, 172.0/3) || !near(w.speed, 1.1) {
		t.Fatalf("scaled window = %+v, want 3 ops at 13.6/s, 57.3 ms CPU per op, median speed 1.1", w)
	}
	for i, want := range []float64{75, 110, 35} {
		if !near(w.lat[i], want) {
			t.Fatalf("scaled latencies %v, want 75, 110, 35", w.lat)
		}
	}
}

func TestProbeSpeedRestoresTheCollector(t *testing.T) {
	prev := debug.SetGCPercent(137)
	defer debug.SetGCPercent(prev)
	if s := probeSpeed(time.Millisecond, 2); !(s > 0) {
		t.Fatalf("probeSpeed = %v, want a positive share of refSpeed", s)
	}
	if got := debug.SetGCPercent(137); got != 137 {
		t.Fatalf("GC percent after a probe = %d, want 137", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.9: 5, 0.2: 1, 0.99: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestBenchmarkJSONMatchesTheMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	e2e := map[string]string{}
	for _, e := range b.EndToEnd {
		e2e[e.Name] = e.Unit
	}
	if !reflect.DeepEqual(e2e, e2eUnits) {
		t.Errorf("end_to_end %v, want %v", e2e, e2eUnits)
	}
	var want []entry
	for _, lm := range layerMetrics {
		want = append(want, entry{lm.name, lm.unit, lm.better})
	}
	if !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("per_layer %v\nwant %v", b.PerLayer, want)
	}
}
