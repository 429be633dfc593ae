// Command perfbench is the repository's benchmark. It drives ICIStrategy's
// read path (gateway over the TCP storage cluster), write path
// (netx.Cluster.DistributeBlock) and simulation engine (core.System in
// simnet) through their public APIs from one process, checks every result,
// and prints one JSON result line. See README.md for the workloads and
// metrics.
//
//	perfbench --workload read-cold --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"icistrategy/internal/trace"
)

// sizes fixes every input size of the benchmark.
type sizes struct {
	servers, replication        int     // storage cluster behind the gateway and ingest
	blocks, txPerBlock, payload int     // the E15 chain
	readClients                 int     // closed-loop wire clients
	cacheBytes                  int64   // each gateway cache on read-hot
	zipfS                       float64 // read-hot key skew
	minOps                      int     // a read run extends until it has this many ops
	ingestOps, ingestBlocks     int     // blocks distributed per run, blocks built
	simNodes, simClusterSize    int     // sim-commit network
	simTxPerBlock, simOps       int     // sim-commit txs per block, blocks per run
	briefReadSeconds            float64 // traced pass of a read path that is not the run's workload
	ingestLayerOps              int     // untraced ingest ops of a layer run
	briefIngestOps              int     // the same, when not the run's workload
}

func defaultSizes() sizes {
	return sizes{
		servers: 4, replication: 2,
		blocks: 48, txPerBlock: 96, payload: 40,
		readClients: 2, cacheBytes: 4 << 20, zipfS: 1.1, minOps: 4000,
		ingestOps: 1000, ingestBlocks: 1000,
		simNodes: 256, simClusterSize: 16, simTxPerBlock: 512, simOps: 10,
		briefReadSeconds: 1,
		ingestLayerOps:   200,
		briefIngestOps:   30,
	}
}

var workloadNames = []string{"read-hot", "read-cold", "ingest", "sim-commit"}

// fixture is one workload's deployment, built by set-up.
type fixture interface {
	// measure runs the workload's timed loop.
	measure(seconds float64) loopStats
	// verify makes the post-run correctness checks: how many, how many failed.
	verify() (checked, failed int64)
	// storedRatio is header plus chunk bytes on every member per body byte.
	storedRatio() float64
	close()
}

func newFixture(name string, seed uint64, sz sizes) (fixture, error) {
	switch name {
	case "read-hot":
		return newReadFixture(seed, true, sz)
	case "read-cold":
		return newReadFixture(seed, false, sz)
	case "ingest":
		return newIngestFixture(seed, sz)
	case "sim-commit":
		return newSimFixture(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics of an untraced run.
var e2eUnits = map[string]string{
	"setup_s":                    "s",
	"ops_per_s":                  "1/s",
	"op_p50_ms":                  "ms",
	"op_p99_ms":                  "ms",
	"cpu_ms_per_op":              "ms",
	"live_heap_mb":               "MB",
	"stored_bytes_per_user_byte": "B/B",
}

// outcome is a finished run: its metrics, its checks, and facts about the
// run that are not metrics.
type outcome struct {
	values            map[string]float64
	attempted, failed int64
	info              map[string]any
	events            map[string][]trace.Event
}

// runE2E sets up the workload several times (keeping the last set-up),
// runs its measured loop, then checks its outputs. The timings are scaled
// to the machine's speed (see speed.go); the info line keeps them as
// measured.
func runE2E(name string, seed uint64, seconds float64, sz sizes) (*outcome, error) {
	fx, setups, rawSetups, err := setUp(name, seed, sz)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	st := fx.measure(seconds)
	heap := liveHeapMB()
	checked, failed := fx.verify()
	stored := fx.storedRatio()

	w, raw := st.window(true), st.window(false)
	out := &outcome{
		values: map[string]float64{
			"setup_s":                    median(setups),
			"ops_per_s":                  w.rate,
			"op_p50_ms":                  quantile(w.lat, 0.50),
			"op_p99_ms":                  quantile(w.lat, 0.99),
			"cpu_ms_per_op":              w.cpuPerOp,
			"live_heap_mb":               heap,
			"stored_bytes_per_user_byte": stored,
		},
		attempted: st.ops + checked,
		failed:    st.failed + failed,
	}
	out.info = map[string]any{
		"op_samples":        st.ops,
		"window_op_samples": w.ops,
		"segments":          len(st.segEnd),
		"elapsed_s":         st.elapsed.Seconds(),
		"setup_samples_s":   rawSetups,
		"speed_median":      w.speed,
		"op_p90_ms":         quantile(w.lat, 0.90),
		"failed_op_ratio":   float64(out.failed) / float64(out.attempted),
		"unscaled": map[string]float64{
			"setup_s":       median(rawSetups),
			"ops_per_s":     raw.rate,
			"op_p50_ms":     quantile(raw.lat, 0.50),
			"op_p99_ms":     quantile(raw.lat, 0.99),
			"cpu_ms_per_op": raw.cpuPerOp,
		},
	}
	return out, nil
}

// setUp builds the workload's fixture at least minSetups times and until
// setupBudget has passed, probes excluded (at most maxSetups times),
// closing all but the last. Short set-ups are repeated more, so their median is as
// steady as that of long ones. It returns each set-up's time scaled to the
// machine's speed around it, probed on one goroutine, and as measured.
func setUp(name string, seed uint64, sz sizes) (fixture, []float64, []float64, error) {
	const (
		minSetups, maxSetups = 3, 9
		setupBudget          = 2 * time.Second
	)
	var st loopStats
	sg := newSegmenter(&st, 1)
	for {
		t0 := sg.now()
		f, err := newFixture(name, seed, sz)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		st.opStart, st.opEnd = append(st.opStart, t0), append(st.opEnd, sg.now())
		sg.closeSegment()
		if n := len(st.opEnd); n >= maxSetups || (n >= minSetups && sg.now() >= setupBudget) {
			return f, seconds(st.window(true).lat), seconds(st.window(false).lat), nil
		}
		f.close()
	}
}

// seconds converts latencies in ms to seconds.
func seconds(msecs []float64) []float64 {
	s := make([]float64, len(msecs))
	for i, v := range msecs {
		s[i] = v / 1000
	}
	return s
}

// runLayers measures one workload's path for the traced run, at full
// length when it is the run's own workload and briefly otherwise.
func runLayers(name string, seed uint64, seconds float64, brief bool, sz sizes) (layerRun, error) {
	switch name {
	case "read-hot", "read-cold":
		f, err := newReadFixture(seed, name == "read-hot", sz)
		if err != nil {
			return layerRun{}, err
		}
		defer f.close()
		if brief {
			seconds = sz.briefReadSeconds
		} else {
			seconds /= 3
		}
		return f.layers(seconds, brief), nil
	case "ingest":
		ops := sz.ingestLayerOps
		if brief {
			ops = sz.briefIngestOps
		}
		sz.ingestBlocks = ops + passes(brief)*exactIngestBlocks
		f, err := newIngestFixture(seed, sz)
		if err != nil {
			return layerRun{}, err
		}
		defer f.close()
		return f.layers(ops, brief), nil
	case "sim-commit":
		sz.simOps = passes(brief)
		f, err := newSimFixture(seed, sz)
		if err != nil {
			return layerRun{}, err
		}
		return f.layers(brief)
	}
	return layerRun{}, fmt.Errorf("unknown workload %q", name)
}

// runTraced yields every per-layer metric: each from its home workload's
// path (the asked-for workload at full length, the others briefly), plus
// the runtime and trace-overhead figures of the asked-for workload.
func runTraced(name string, seed uint64, seconds float64, sz sizes) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, events: map[string][]trace.Event{}, info: map[string]any{}}
	order := []string{name}
	for _, w := range workloadNames {
		if w != name {
			order = append(order, w)
		}
	}
	for _, w := range order {
		lr, err := runLayers(w, seed, seconds, w != name, sz)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", w, err)
		}
		out.attempted += lr.checked
		out.failed += lr.failed
		for _, st := range append(append([]loopStats(nil), lr.untraced...), lr.traced...) {
			out.attempted += st.ops
			out.failed += st.failed
		}
		out.events[w] = lr.events
		for _, lm := range layerMetrics {
			if lm.home == w {
				v, ok := lr.metrics[lm.name]
				if !ok {
					return nil, fmt.Errorf("%s path did not yield %s", w, lm.name)
				}
				out.values[lm.name] = v
			}
		}
		if w == name {
			var ops, alloc, gcs int64
			var untracedMs, tracedMs float64
			for i, u := range lr.untraced {
				ops, alloc, gcs = ops+u.ops, alloc+int64(u.allocBytes), gcs+int64(u.gcs)
				untracedMs += u.meanOpMillis()
				tracedMs += lr.traced[i].meanOpMillis()
			}
			out.values["runtime.alloc_kb_per_op"] = float64(alloc) / 1024 / float64(ops)
			out.values["runtime.gc_per_kop"] = float64(gcs) * 1000 / float64(ops)
			out.values["bench.trace_overhead_ratio"] = tracedMs / untracedMs
			out.info["untraced_op_samples"] = ops
		}
	}
	exact := map[string]float64{}
	for _, n := range exactCounts {
		exact[n] = out.values[n]
	}
	out.info["exact_counts"] = exact
	return out, nil
}

// writeTrace writes the recorded spans, one JSON object per line, each
// tagged with the workload path that produced it.
func writeTrace(path string, events map[string][]trace.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, w := range workloadNames {
		for _, e := range events[w] {
			if err := enc.Encode(struct {
				Path string `json:"path"`
				trace.Event
			}{w, e}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: read-hot, read-cold, ingest or sim-commit")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of a time-bound run")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if !isKnown(*name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames)
		return 2
	}
	sz := defaultSizes()
	var (
		out   *outcome
		err   error
		units = e2eUnits
	)
	if *traced == 1 {
		out, err = runTraced(*name, *seed, *seconds, sz)
		units = map[string]string{}
		for _, lm := range layerMetrics {
			units[lm.name] = lm.unit
		}
	} else {
		out, err = runE2E(*name, *seed, *seconds, sz)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *traced == 1 {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := writeTrace(path, out.events); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
		out.info["trace_file"] = path
	}

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for n, unit := range units {
		v, ok := out.values[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s missing or not finite (%v)\n", n, v)
			return 1
		}
		res.Metrics[n] = metric{Value: v, Unit: unit}
	}
	info := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}
	for k, v := range out.info {
		info[k] = v
	}
	infoLine, err1 := json.Marshal(map[string]any{"info": info})
	resLine, err2 := json.Marshal(res)
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(infoLine))
	fmt.Fprintln(stdout, string(resLine))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or returned wrong results\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func isKnown(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}
