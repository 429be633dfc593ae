package core

import (
	"testing"
	"testing/quick"
)

func TestSplitCounts(t *testing.T) {
	cases := []struct {
		total, parts int
		want         []int
	}{
		{10, 2, []int{5, 5}},
		{10, 3, []int{4, 3, 3}},
		{2, 4, []int{1, 1, 0, 0}},
		{0, 3, []int{0, 0, 0}},
		{7, 1, []int{7}},
	}
	for _, tc := range cases {
		got, err := SplitCounts(tc.total, tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("SplitCounts(%d,%d) = %v", tc.total, tc.parts, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("SplitCounts(%d,%d) = %v, want %v", tc.total, tc.parts, got, tc.want)
			}
		}
	}
	if _, err := SplitCounts(5, 0); err == nil {
		t.Fatal("parts=0 accepted")
	}
}

func TestSplitCountsProperties(t *testing.T) {
	f := func(totalRaw, partsRaw uint16) bool {
		total := int(totalRaw)
		parts := int(partsRaw%256) + 1
		counts, err := SplitCounts(total, parts)
		if err != nil {
			return false
		}
		sum, maxC, minC := 0, 0, int(^uint(0)>>1)
		for _, c := range counts {
			sum += c
			if c > maxC {
				maxC = c
			}
			if c < minC {
				minC = c
			}
		}
		return sum == total && maxC-minC <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkRange(t *testing.T) {
	// Ranges must tile [0, total) exactly, in order.
	total, parts := 103, 7
	prevEnd := 0
	for idx := 0; idx < parts; idx++ {
		start, end, err := ChunkRange(total, parts, idx)
		if err != nil {
			t.Fatal(err)
		}
		if start != prevEnd {
			t.Fatalf("chunk %d starts at %d, want %d", idx, start, prevEnd)
		}
		prevEnd = end
	}
	if prevEnd != total {
		t.Fatalf("ranges end at %d, want %d", prevEnd, total)
	}
	if _, _, err := ChunkRange(10, 3, 3); err == nil {
		t.Fatal("out-of-range chunk index accepted")
	}
	if _, _, err := ChunkRange(10, 3, -1); err == nil {
		t.Fatal("negative chunk index accepted")
	}
}
