package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loopStats is what one measured loop of operations yields. The loop is cut
// into segments of roughly equal wall time, and between segments it pauses
// while the machine's speed is probed (see speed.go). Times are on the
// loop's active clock: wall time since the loop started, pauses excluded.
type loopStats struct {
	ops, failed int64
	opStart     []time.Duration // when each op started, on the active clock
	opEnd       []time.Duration // when each op ended, parallel to opStart
	segEnd      []time.Duration // when each segment ended
	segCPU      []time.Duration // process CPU time used in each segment
	segSpeed    []float64       // machine speed over each segment, as a share of refSpeed
	elapsed     time.Duration   // wall time, pauses included
	allocBytes  uint64          // heap bytes allocated during the loop
	gcs         uint32          // garbage collections during the loop
}

// opFunc runs one operation for client ci; i counts that client's ops.
type opFunc func(ci, i int) error

// segmentLen is the wall time one measuring segment covers.
const segmentLen = 500 * time.Millisecond

// segmenter cuts a loop into segments. A segment's speed is the mean of
// the probes just before and just after it, each run on as many
// goroutines as the loop runs ops on.
type segmenter struct {
	st         *loopStats
	goroutines int
	lastSpeed  float64
	start      time.Time
	paused     time.Duration // probing time so far
	segStart   time.Duration // on the active clock
	cpu0       time.Duration
}

func newSegmenter(st *loopStats, goroutines int) *segmenter {
	sg := &segmenter{st: st, goroutines: goroutines, lastSpeed: probeSpeed(minProbe, goroutines)}
	sg.start, sg.cpu0 = time.Now(), cpuTime()
	return sg
}

// now reads the active clock.
func (sg *segmenter) now() time.Duration { return time.Since(sg.start) - sg.paused }

// due reports whether the current segment has run its length.
func (sg *segmenter) due() bool { return sg.now()-sg.segStart >= segmentLen }

// closeSegment ends the current segment, probes the machine's speed, and
// starts the next segment once the probe is done. No op may run meanwhile.
func (sg *segmenter) closeSegment() {
	end, cpu := sg.now(), cpuTime()
	t0 := time.Now()
	next := probeSpeed((end-sg.segStart)/10, sg.goroutines)
	st := sg.st
	st.segEnd, st.segCPU = append(st.segEnd, end), append(st.segCPU, cpu-sg.cpu0)
	st.segSpeed = append(st.segSpeed, (sg.lastSpeed+next)/2)
	sg.lastSpeed = next
	sg.paused += time.Since(t0)
	sg.segStart, sg.cpu0 = end, cpuTime()
}

// finish records the loop's totals.
func (sg *segmenter) finish(m0 runtime.MemStats) {
	sg.st.elapsed = time.Since(sg.start)
	m1 := readMem()
	sg.st.allocBytes, sg.st.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
}

// runTimed drives clients closed-loop goroutines calling op until seconds
// of segments have passed and at least minOps operations completed
// (bounded at four times the requested length). The calling goroutine
// closes a segment every segment length, once the ops in flight are done;
// the clients wait while the machine's speed is probed.
func runTimed(clients int, seconds float64, minOps int, op opFunc) loopStats {
	type sample struct{ start, end time.Duration }
	var (
		st      loopStats
		stop    atomic.Bool
		done    atomic.Int64
		failed  atomic.Int64
		gate    sync.RWMutex // clients hold it for reading around each op
		wg      sync.WaitGroup
		samples = make([][]sample, clients)
	)
	runtime.GC()
	m0 := readMem()
	sg := newSegmenter(&st, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ss := make([]sample, 0, 1024)
			for i := 0; ; i++ {
				gate.RLock()
				if stop.Load() {
					gate.RUnlock()
					break
				}
				t0 := sg.now()
				err := op(ci, i)
				ss = append(ss, sample{t0, sg.now()})
				gate.RUnlock()
				if err != nil {
					failed.Add(1)
				}
				done.Add(1)
			}
			samples[ci] = ss
		}(ci)
	}
	limit := time.Duration(seconds * float64(time.Second))
	for {
		time.Sleep(segmentLen - (sg.now() - sg.segStart))
		gate.Lock()
		end := sg.now()
		last := (end >= limit && done.Load() >= int64(minOps)) || end >= 4*limit
		stop.Store(last)
		sg.closeSegment()
		gate.Unlock()
		if last {
			break
		}
	}
	wg.Wait()
	sg.finish(m0)
	for _, ss := range samples {
		for _, s := range ss {
			st.opStart, st.opEnd = append(st.opStart, s.start), append(st.opEnd, s.end)
		}
	}
	st.ops, st.failed = done.Load(), failed.Load()
	return st
}

// countedOp runs op i. A long op calls checkpoint where it may be paused:
// the loop then closes the current segment if it has run its length.
type countedOp func(i int, checkpoint func()) error

// runCounted runs exactly n operations one after another. A segment closes
// after an op, or at an op's checkpoint, once it has run its length, and
// after the last op. The machine's speed is probed on one goroutine, as
// the ops run on one.
func runCounted(n int, op countedOp) loopStats {
	var st loopStats
	runtime.GC()
	m0 := readMem()
	sg := newSegmenter(&st, 1)
	checkpoint := func() {
		if sg.due() {
			sg.closeSegment()
		}
	}
	for i := 0; i < n; i++ {
		t0 := sg.now()
		err := op(i, checkpoint)
		st.opStart, st.opEnd = append(st.opStart, t0), append(st.opEnd, sg.now())
		if err != nil {
			st.failed++
		}
		if sg.due() || i == n-1 {
			sg.closeSegment()
		}
	}
	sg.finish(m0)
	st.ops = int64(n)
	return st
}

// window is what the end-to-end metrics are read from: every segment of a
// loop, pooled.
type window struct {
	ops      int64
	rate     float64   // ops per second
	cpuPerOp float64   // process CPU ms per op
	lat      []float64 // op latencies in ms
	speed    float64   // median segment speed, as a share of refSpeed
}

// window pools the loop's segments. Scaled, every stretch of time in a
// segment (wall, CPU, or part of an op) is multiplied by the machine's
// speed over that segment, so the loop reads as if the machine had run at
// refSpeed throughout; unscaled, times are as measured.
func (st *loopStats) window(scaled bool) window {
	factor := func(k int) float64 {
		if scaled {
			return st.segSpeed[k]
		}
		return 1
	}
	// at[k] is the scaled active time at the start of segment k.
	at := make([]float64, len(st.segEnd)+1)
	var cpu float64
	prev := time.Duration(0)
	for k, end := range st.segEnd {
		at[k+1] = at[k] + ms(end-prev)*factor(k)
		cpu += ms(st.segCPU[k]) * factor(k)
		prev = end
	}
	// clock maps the active clock to the scaled one.
	clock := func(t time.Duration) float64 {
		k := sort.Search(len(st.segEnd), func(k int) bool { return st.segEnd[k] >= t })
		if k == len(st.segEnd) {
			k--
		}
		begin := time.Duration(0)
		if k > 0 {
			begin = st.segEnd[k-1]
		}
		return at[k] + ms(t-begin)*factor(k)
	}
	var w window
	for i, end := range st.opEnd {
		w.lat = append(w.lat, clock(end)-clock(st.opStart[i]))
	}
	w.ops, w.speed = int64(len(w.lat)), median(st.segSpeed)
	if total := at[len(st.segEnd)]; w.ops > 0 && total > 0 {
		w.rate = float64(w.ops) / total * 1000
		w.cpuPerOp = cpu / float64(w.ops)
	}
	return w
}

// meanOpMillis is the mean scaled op latency in ms over the loop.
func (st *loopStats) meanOpMillis() float64 {
	w := st.window(true)
	var sum float64
	for _, l := range w.lat {
		sum += l
	}
	return sum / float64(len(w.lat))
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle of xs, averaging the two middle values of an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time: every goroutine of
// the benchmark, including the in-process servers and gateway.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB forces a collection and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	m := readMem()
	return float64(m.HeapAlloc) / (1 << 20)
}
