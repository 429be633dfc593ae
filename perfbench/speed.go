package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// The machine the benchmark runs on is shared with other tenants, and its
// speed drifts: a fixed loop of Ed25519 and SHA-256 work runs up to a
// quarter faster or slower from one minute to the next, which moves every
// timing of a run alike. So each measured loop stops between segments to
// time a fixed reference workload, and every time the loop measured is
// scaled by the reference's speed around it, relative to refSpeed. A
// program change moves the loop and not the reference, so it still shows
// in full; a drift of the machine moves both and cancels. The reference
// uses only the standard library, so no change to the repository's code
// changes it.

// refSpeed is the reference workload's rate, in units per second per
// goroutine, that scaled times are quoted at: about its rate on the
// 2-vCPU shared host the benchmark was tuned on, so scaled times read
// close to raw ones there.
const refSpeed = 3000

// minProbe is the shortest reference measurement; a probe otherwise lasts
// a tenth of the segment before it.
const minProbe = 40 * time.Millisecond

var (
	refKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	refMsg = make([]byte, 64)
	refSig = ed25519.Sign(refKey, refMsg)
	refPub = refKey.Public().(ed25519.PublicKey)
)

// refWords is 4 MiB of pseudo-random words for the reference to sort and
// to read in a dependent chain, so it waits on the shared caches as the
// program does. It is a package-level array, outside the heap, so that
// live_heap_mb does not count it.
var refWords [1 << 19]uint64

func init() {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range refWords {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		refWords[i] = x
	}
}

// refScratch is one goroutine's working memory for the reference.
type refScratch struct {
	buf    [4096]byte
	sorted []uint64
	at     int    // where the next unit's words start in refWords
	sink   uint64 // end of the chain, so the reads are not optimized away
}

// refUnit is one unit of the reference workload: an Ed25519 verification,
// sixteen SHA-256 digests of 4 KiB, a sort of 1024 words and a chain of
// 500 dependent reads, each taking roughly a quarter of the time. It
// allocates nothing, so it leaves no garbage for the measured loop to
// collect.
func refUnit(s *refScratch) {
	ed25519.Verify(refPub, refMsg, refSig)
	for i := 0; i < 16; i++ {
		sha256.Sum256(s.buf[:])
	}
	s.sorted = append(s.sorted[:0], refWords[s.at:s.at+1024]...)
	slices.Sort(s.sorted)
	x := s.sorted[0]
	for i := uint64(0); i < 500; i++ {
		x = refWords[(x^i)&(uint64(len(refWords))-1)]
	}
	s.sink += x
	s.at = (s.at + 1024) % (len(refWords) - 1024)
}

// probeSpeed runs the reference workload on the given number of goroutines
// for at least d and returns its rate per goroutine as a share of
// refSpeed. The loop's goroutines are paused meanwhile. Garbage collection
// is held off for the probe, after any collection already marking has
// finished, so the program's heap does not slow the reference.
func probeSpeed(d time.Duration, goroutines int) float64 {
	if d < minProbe {
		d = minProbe
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	counts := make([]int, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for g := range counts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := &refScratch{sorted: make([]uint64, 0, 1024)}
			for time.Now().Before(deadline) {
				refUnit(s)
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / float64(goroutines) / time.Since(start).Seconds() / refSpeed
}
