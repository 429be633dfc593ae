package main

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/gateway"
	"icistrategy/internal/netx"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
)

// layerMetric is one per-layer metric of the traced run. Each is measured
// on its home workload's path, whichever workload the run was asked for;
// the runtime and bench metrics (home "") describe the asked-for workload.
type layerMetric struct {
	name, unit, better, home string
}

// phaseProtos are the protocol phases trace.Summarize reports for a
// sim-commit block; each gets a core.phase.<proto>.wire_bytes_per_block.
var phaseProtos = []string{"distribute", "verify"}

var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"gateway.block_cache.hit_ratio", "ratio", "higher", "read-hot"},
		{"gateway.wire_ms_per_op", "ms", "lower", "read-hot"},
		{"gateway.upstream.rpcs_per_op", "count", "lower", "read-cold"},
		{"gateway.upstream.refs_per_rpc", "count", "higher", "read-cold"},
		{"gateway.coalesced_per_kop", "count", "higher", "read-cold"},
		{"gateway.upstream.fetch_ms_p50", "ms", "lower", "read-cold"},
		{"gateway.upstream.busy_ms_per_op", "ms", "lower", "read-cold"},
		{"gateway.self_ms_per_op", "ms", "lower", "read-cold"},
	}
	for _, fr := range []struct{ frame, home string }{
		{"chunk_batch_resp", "read-cold"}, {"put_chunk_req", "ingest"}, {"block_resp", "read-hot"},
	} {
		ms = append(ms,
			layerMetric{"netx.codec.encode_us." + fr.frame, "us", "lower", fr.home},
			layerMetric{"netx.codec.decode_us." + fr.frame, "us", "lower", fr.home},
			layerMetric{"netx.codec.bytes." + fr.frame, "B", "lower", fr.home})
	}
	ms = append(ms,
		layerMetric{"netx.rpcs_per_block", "count", "lower", "ingest"},
		layerMetric{"netx.wire_bytes_per_block", "B", "lower", "ingest"},
		layerMetric{"netx.put_chunk.rpc_ms_p50", "ms", "lower", "ingest"},
		layerMetric{"netx.put_header.rpc_ms_p50", "ms", "lower", "ingest"},
		layerMetric{"storage.put_us_per_chunk", "us", "lower", "ingest"},
		layerMetric{"chain.prove_us_per_block", "us", "lower", "ingest"},
		layerMetric{"storage.get_us_per_chunk", "us", "lower", "read-cold"},
		layerMetric{"chain.reassemble_us_per_block", "us", "lower", "read-cold"},
		layerMetric{"simnet.events_per_block", "count", "lower", "sim-commit"},
		layerMetric{"simnet.wire_bytes_per_block", "B", "lower", "sim-commit"},
		layerMetric{"simnet.events_per_s", "1/s", "higher", "sim-commit"},
		layerMetric{"core.produce_ms_per_block", "ms", "lower", "sim-commit"},
		layerMetric{"core.run_ms_per_block", "ms", "lower", "sim-commit"},
		layerMetric{"core.commit_virtual_ms", "ms", "lower", "sim-commit"})
	for _, p := range phaseProtos {
		ms = append(ms, layerMetric{"core.phase." + p + ".wire_bytes_per_block", "B", "lower", "sim-commit"})
	}
	return append(ms,
		layerMetric{"runtime.alloc_kb_per_op", "KiB", "lower", ""},
		layerMetric{"runtime.gc_per_kop", "count", "lower", ""},
		layerMetric{"bench.trace_overhead_ratio", "ratio", "lower", ""})
}()

// exactCounts are the per-layer metrics that must repeat exactly for one
// seed: they count work, not time.
var exactCounts = []string{
	"netx.rpcs_per_block", "netx.wire_bytes_per_block",
	"simnet.events_per_block", "simnet.wire_bytes_per_block", "core.commit_virtual_ms",
	"core.phase.distribute.wire_bytes_per_block", "core.phase.verify.wire_bytes_per_block",
}

// layerRun is what a path's layer passes report: its home layer metrics,
// the untraced and traced loops it ran (for the runtime and overhead
// metrics), and the spans it recorded. Traced and untraced loops alternate,
// traced first, so a drift in the machine's speed touches both alike.
type layerRun struct {
	metrics          map[string]float64
	untraced, traced []loopStats
	checked, failed  int64
	events           []trace.Event
}

// passes is how many traced and untraced loops a full-length layer run
// alternates; a brief one runs one of each.
func passes(brief bool) int {
	if brief {
		return 1
	}
	return 2
}

// newTracer is an in-memory tracer: spans stay in the ring until the run
// writes them out.
func newTracer() (*trace.Tracer, *trace.Ring) {
	ring := trace.NewRing(1 << 16)
	return trace.New(ring), ring
}

// timedUpstream implements gateway.Upstream around a ClusterUpstream. While
// a tracer is installed it records one span per Header and FetchBatch
// call, parented under the op span the caller last set, and keeps the first
// few FetchBatch responses as sample frames for the codec probe.
type timedUpstream struct {
	*gateway.ClusterUpstream
	tr     atomic.Pointer[trace.Tracer]
	parent atomic.Uint64

	mu      sync.Mutex
	samples []*netx.ChunkBatchResp
}

const maxFrameSamples = 16

func (u *timedUpstream) Header(block blockcrypto.Hash) (chain.Header, error) {
	sp := u.tr.Load().Start(trace.SpanID(u.parent.Load()), "gateway", "upstream.header", -1)
	h, err := u.ClusterUpstream.Header(block)
	sp.SetErr(err)
	sp.End()
	return h, err
}

func (u *timedUpstream) FetchBatch(peer int, refs []netx.ChunkRef) (*netx.ChunkBatchResp, error) {
	tr := u.tr.Load()
	sp := tr.Start(trace.SpanID(u.parent.Load()), "gateway", "upstream.fetch-batch", int64(peer))
	resp, err := u.ClusterUpstream.FetchBatch(peer, refs)
	sp.SetErr(err)
	sp.End()
	if tr != nil && err == nil {
		u.mu.Lock()
		if len(u.samples) < maxFrameSamples {
			u.samples = append(u.samples, resp)
		}
		u.mu.Unlock()
	}
	return resp, err
}

// counterDelta reads the registry counters named before and after fn.
func (f *readFixture) counterDelta(fn func()) map[string]float64 {
	before := f.reg.Snapshot()
	fn()
	after := f.reg.Snapshot()
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// layers alternates traced and untraced runs of the read path (the
// untraced ones also give the gateway counters), then reads once more with
// one wire client over a fixed key sequence and replays the same keys
// in-process through Gateway.GetBlock. Wire time is the client op time
// minus the in-process op time; gateway self time is the in-process op
// time minus the union of its upstream calls.
func (f *readFixture) layers(seconds float64, brief bool) layerRun {
	var lr layerRun
	m := map[string]float64{}
	tr, ring := newTracer()
	traced := func(ci, i int) error {
		sp := tr.Start(0, "bench", "client.get-block", int64(ci))
		err := f.op(ci, i)
		sp.SetErr(err)
		sp.End()
		return err
	}
	d := map[string]float64{}
	n := passes(brief)
	pass := seconds / float64(n)
	var ops float64
	for i := 0; i < n; i++ {
		f.up.tr.Store(tr)
		lr.traced = append(lr.traced, runTimed(len(f.clients), pass, 0, traced))
		f.up.tr.Store(nil)
		for k, v := range f.counterDelta(func() {
			lr.untraced = append(lr.untraced, runTimed(len(f.clients), pass, 0, f.op))
		}) {
			d[k] += v
		}
		ops += float64(lr.untraced[i].ops)
	}
	if hm := d["ici.gateway.block_cache.hits"] + d["ici.gateway.block_cache.misses"]; hm > 0 {
		m["gateway.block_cache.hit_ratio"] = d["ici.gateway.block_cache.hits"] / hm
	}
	m["gateway.upstream.rpcs_per_op"] = d["ici.gateway.batch.rpcs"] / ops
	if d["ici.gateway.batch.rpcs"] > 0 {
		m["gateway.upstream.refs_per_rpc"] = d["ici.gateway.batch.refs"] / d["ici.gateway.batch.rpcs"]
	}
	m["gateway.coalesced_per_kop"] = d["ici.gateway.coalesced"] * 1000 / ops

	f.up.tr.Store(tr)
	defer f.up.tr.Store(nil)
	// One wire client, then the in-process replay, over the same keys.
	keys := make([]*chain.Block, 0, 1024)
	c := f.clients[0]
	deadline := time.Now().Add(time.Duration(pass / 2 * float64(time.Second)))
	for time.Now().Before(deadline) || len(keys) < 20 {
		b := f.blocks[f.pickers[0].Pick()]
		sp := tr.Start(0, "bench", "wire.get-block", 0)
		f.up.parent.Store(uint64(sp.Context()))
		err := f.read(c, b)
		sp.SetErr(err)
		sp.End()
		lr.tally(err)
		keys = append(keys, b)
	}
	for _, b := range keys {
		sp := tr.Start(0, "bench", "inproc.get-block", 0)
		f.up.parent.Store(uint64(sp.Context()))
		got, err := f.gw.GetBlock(b.Hash())
		if err == nil {
			err = sameBlock(got, b)
		}
		sp.SetErr(err)
		sp.End()
		lr.tally(err)
	}
	f.up.parent.Store(0)
	lr.events = ring.Events()
	splitReadTime(lr.events, m)

	f.up.mu.Lock()
	samples := f.up.samples
	f.up.mu.Unlock()
	if len(samples) > 0 {
		frames := make([]any, len(samples))
		for i, s := range samples {
			frames[i] = &netx.Response{ChunkBatch: s}
		}
		codecProbe(m, "chunk_batch_resp", frames, func() any { return new(netx.Response) })
	}
	frames := make([]any, 0, 8)
	for _, b := range f.blocks[:8] {
		frames = append(frames, &gateway.WireResponse{Block: b.Encode()})
	}
	codecProbe(m, "block_resp", frames, func() any { return new(gateway.WireResponse) })
	chunks := chunkRequests(f.blocks, f.sz.servers)
	storageGetProbe(m, chunks)
	reassembleProbe(m, f.blocks, chunks, f.sz.servers)
	lr.metrics = m
	return lr
}

func (lr *layerRun) tally(err error) {
	lr.checked++
	if err != nil {
		lr.failed++
	}
}

// splitReadTime derives the wire / gateway-self / upstream split from the
// single-client wire spans, the in-process replay spans and the upstream
// spans parented under the replay ops.
func splitReadTime(events []trace.Event, m map[string]float64) {
	children := map[trace.SpanID][]trace.Event{}
	var wire, inproc []trace.Event
	for _, e := range events {
		switch e.Name {
		case "wire.get-block":
			wire = append(wire, e)
		case "inproc.get-block":
			inproc = append(inproc, e)
		case "upstream.fetch-batch", "upstream.header":
			children[e.Parent] = append(children[e.Parent], e)
		}
	}
	var wireSum, inSum, busySum time.Duration
	for _, e := range wire {
		wireSum += e.End - e.Start
	}
	var fetches []float64
	for _, e := range inproc {
		inSum += e.End - e.Start
		busySum += union(children[e.ID])
		for _, c := range children[e.ID] {
			if c.Name == "upstream.fetch-batch" {
				fetches = append(fetches, ms(c.End-c.Start))
			}
		}
	}
	if len(wire) == 0 || len(inproc) == 0 {
		return
	}
	n := float64(len(inproc))
	m["gateway.wire_ms_per_op"] = ms(wireSum)/float64(len(wire)) - ms(inSum)/n
	m["gateway.self_ms_per_op"] = ms(inSum-busySum) / n
	m["gateway.upstream.busy_ms_per_op"] = ms(busySum) / n
	if len(fetches) > 0 {
		m["gateway.upstream.fetch_ms_p50"] = median(fetches)
	}
}

// union is the wall time covered by at least one of the spans.
func union(spans []trace.Event) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]trace.Event(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total time.Duration
	curS, curE := s[0].Start, s[0].End
	for _, e := range s[1:] {
		if e.Start > curE {
			total += curE - curS
			curS, curE = e.Start, e.End
		} else if e.End > curE {
			curE = e.End
		}
	}
	return total + curE - curS
}

// exactIngestBlocks is the length of the first traced ingest pass, the one
// the exact counts come from: always the same first blocks of the seed.
const exactIngestBlocks = 25

// layers alternates ingest passes with and without the cluster tracer,
// traced first. The round-trip spans give RPCs and wire bytes per block
// (from the first traced pass) and put latencies (from all of them).
func (f *ingestFixture) layers(ops int, brief bool) layerRun {
	var lr layerRun
	m := map[string]float64{}
	var putChunk, putHeader []float64
	n := passes(brief)
	for i := 0; i < n; i++ {
		tr, ring := newTracer()
		f.cl.SetTracer(tr)
		lr.traced = append(lr.traced, runCounted(exactIngestBlocks, f.op))
		f.cl.SetTracer(nil)
		events := ring.Events()
		var rpcs, wireBytes int64
		for _, e := range events {
			if e.Proto != "netx" {
				continue
			}
			rpcs++
			wireBytes += e.Bytes
			switch e.Name {
			case "put-chunk":
				putChunk = append(putChunk, ms(e.End-e.Start))
			case "put-header":
				putHeader = append(putHeader, ms(e.End-e.Start))
			}
		}
		if i == 0 {
			m["netx.rpcs_per_block"] = float64(rpcs) / exactIngestBlocks
			m["netx.wire_bytes_per_block"] = float64(wireBytes) / exactIngestBlocks
		}
		lr.events = append(lr.events, events...)
		lr.untraced = append(lr.untraced, runCounted(ops/n, f.op))
	}
	lr.checked, lr.failed = f.verify()
	m["netx.put_chunk.rpc_ms_p50"] = median(putChunk)
	m["netx.put_header.rpc_ms_p50"] = median(putHeader)

	sample := f.blocks[:min(48, len(f.blocks))]
	chunks := chunkRequests(sample, f.sz.servers)
	frames := make([]any, 0, len(chunks))
	for i := range chunks {
		frames = append(frames, &netx.Request{PutChunk: &chunks[i]})
	}
	codecProbe(m, "put_chunk_req", frames[:min(16, len(frames))], func() any { return new(netx.Request) })
	storagePutProbe(m, chunks)
	proveProbe(m, sample)
	lr.metrics = m
	return lr
}

// layers alternates blocks on a fresh traced system, stepped until commit,
// with the same blocks on the fixture's untraced system, where
// ProduceBlock and the step loop are timed apart. The exact counts come
// from the first traced block: its simulated commit latency, events, wire
// bytes and per-phase wire bytes.
func (f *simFixture) layers(brief bool) (layerRun, error) {
	var lr layerRun
	m := map[string]float64{}
	tr, ring := newTracer()
	sys, err := newSystem(f.seed, f.sz, tr)
	if err != nil {
		return lr, err
	}
	var produce, run time.Duration
	var events int
	n := passes(brief)
	for i := 0; i < n; i++ {
		sent0 := sys.Network().TotalTraffic().BytesSent
		lr.traced = append(lr.traced, runCounted(1, func(int, func()) error {
			d, ev, err := commitVirtual(sys, f.txs[i])
			if i == 0 {
				m["core.commit_virtual_ms"] = ms(d)
				m["simnet.events_per_block"] = float64(ev)
			}
			return err
		}))
		if i == 0 {
			m["simnet.wire_bytes_per_block"] = float64(sys.Network().TotalTraffic().BytesSent - sent0)
			for _, ps := range trace.Summarize(ring.Events()) {
				m["core.phase."+ps.Proto+".wire_bytes_per_block"] = float64(ps.WireBytes)
			}
		}
		lr.untraced = append(lr.untraced, runCounted(1, func(int, func()) error {
			o, err := produceAndRun(f.sys, f.txs[i], func() {})
			produce, run, events = produce+o.produce, run+o.run, events+o.events
			return err
		}))
	}
	lr.events = ring.Events()
	m["simnet.events_per_s"] = float64(events) / run.Seconds()
	m["core.produce_ms_per_block"] = ms(produce) / float64(n)
	m["core.run_ms_per_block"] = ms(run) / float64(n)
	lr.metrics = m
	return lr, nil
}

// chunkRequests splits blocks into the chunks netx.Cluster distributes:
// parts transaction groups per block, each with its Merkle proofs.
func chunkRequests(blocks []*chain.Block, parts int) []netx.PutChunkReq {
	var out []netx.PutChunkReq
	for _, b := range blocks {
		tree, err := chain.TxMerkleTree(b.Txs)
		if err != nil {
			continue
		}
		counts, err := core.SplitCounts(len(b.Txs), parts)
		if err != nil {
			continue
		}
		start := 0
		for idx, n := range counts {
			group := b.Txs[start : start+n]
			proofs := make([]chain.Proof, n)
			for i := range group {
				proofs[i], _ = tree.Prove(start + i)
			}
			sub := chain.Block{Txs: group}
			out = append(out, netx.PutChunkReq{
				Block: b.Hash(), Index: idx, Parts: parts, TxStart: start,
				Data: sub.EncodeBody(), Proofs: proofs,
			})
			start += n
		}
	}
	return out
}

// probeRounds is how many times a probe repeats its pass; it reports the
// median pass.
const probeRounds = 7

// medianPass times fn probeRounds times and returns the median duration.
func medianPass(fn func()) time.Duration {
	ds := make([]float64, probeRounds)
	for r := range ds {
		t0 := time.Now()
		fn()
		ds[r] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// codecProbe times netx.WriteMessage and netx.ReadMessage on the sample
// frames: per-frame encode and decode time and mean frame bytes.
func codecProbe(m map[string]float64, frame string, values []any, fresh func() any) {
	if len(values) == 0 {
		return
	}
	encoded := make([][]byte, len(values))
	var total int
	for i, v := range values {
		var buf bytes.Buffer
		if err := netx.WriteMessage(&buf, v); err != nil {
			return
		}
		encoded[i] = buf.Bytes()
		total += buf.Len()
	}
	const reps = 10
	var buf bytes.Buffer
	enc := medianPass(func() {
		for r := 0; r < reps; r++ {
			for _, v := range values {
				buf.Reset()
				_ = netx.WriteMessage(&buf, v) // encoded once above without error
			}
		}
	})
	dec := medianPass(func() {
		for r := 0; r < reps; r++ {
			for _, e := range encoded {
				_ = netx.ReadMessage(bytes.NewReader(e), fresh()) // decodes what WriteMessage produced
			}
		}
	})
	n := float64(reps * len(values))
	m["netx.codec.encode_us."+frame] = us(enc) / n
	m["netx.codec.decode_us."+frame] = us(dec) / n
	m["netx.codec.bytes."+frame] = float64(total) / float64(len(values))
}

func storagePutProbe(m map[string]float64, chunks []netx.PutChunkReq) {
	d := medianPass(func() {
		s := storage.NewStore()
		for _, c := range chunks {
			_ = s.PutChunk(storage.NewChunk(storage.ChunkID{Block: c.Block, Index: c.Index}, c.Data)) // fresh store: no conflicts
		}
	})
	m["storage.put_us_per_chunk"] = us(d) / float64(len(chunks))
}

func storageGetProbe(m map[string]float64, chunks []netx.PutChunkReq) {
	s := storage.NewStore()
	for _, c := range chunks {
		_ = s.PutChunk(storage.NewChunk(storage.ChunkID{Block: c.Block, Index: c.Index}, c.Data)) // fresh store: no conflicts
	}
	d := medianPass(func() {
		for _, c := range chunks {
			_, _ = s.Chunk(storage.ChunkID{Block: c.Block, Index: c.Index}) // every chunk was just stored
		}
	})
	m["storage.get_us_per_chunk"] = us(d) / float64(len(chunks))
}

// proveProbe times what a writer does per block before sending chunks:
// build the transaction Merkle tree and a proof for every transaction.
func proveProbe(m map[string]float64, blocks []*chain.Block) {
	d := medianPass(func() {
		for _, b := range blocks {
			tree, err := chain.TxMerkleTree(b.Txs)
			if err != nil {
				continue
			}
			for i := range b.Txs {
				_, _ = tree.Prove(i) // i is in range by construction
			}
		}
	})
	m["chain.prove_us_per_block"] = us(d) / float64(len(blocks))
}

// reassembleProbe times what a reader does per block once its chunks
// arrive: decode every chunk body and verify the block shape against its
// header.
func reassembleProbe(m map[string]float64, blocks []*chain.Block, chunks []netx.PutChunkReq, parts int) {
	d := medianPass(func() {
		for bi, b := range blocks {
			var txs []*chain.Transaction
			for _, c := range chunks[bi*parts : (bi+1)*parts] {
				part, err := chain.DecodeBody(c.Data)
				if err != nil {
					return
				}
				txs = append(txs, part...)
			}
			rb := chain.Block{Header: b.Header, Txs: txs}
			_ = rb.VerifyShape() // the chunks came from b itself
		}
	})
	m["chain.reassemble_us_per_block"] = us(d) / float64(len(blocks))
}
