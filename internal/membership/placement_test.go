package membership

import (
	"testing"

	"icistrategy/internal/simnet"
)

func ids(n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(i * 7) // non-contiguous IDs on purpose
	}
	return out
}

func TestOwnersValidation(t *testing.T) {
	if _, err := Owners(1, nil, 0, 1); err == nil {
		t.Fatal("empty membership accepted")
	}
	members := ids(4)
	for _, r := range []int{0, -1, 5} {
		if _, err := Owners(1, members, 0, r); err == nil {
			t.Fatalf("r=%d accepted", r)
		}
	}
}

func TestOwnersDeterministicAndDistinct(t *testing.T) {
	members := ids(16)
	for r := 1; r <= 4; r++ {
		for idx := 0; idx < 16; idx++ {
			a, err := Owners(42, members, idx, r)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := Owners(42, members, idx, r)
			if len(a) != r {
				t.Fatalf("got %d owners, want %d", len(a), r)
			}
			seen := map[simnet.NodeID]bool{}
			for i := range a {
				if a[i] != b[i] {
					t.Fatal("Owners not deterministic")
				}
				if seen[a[i]] {
					t.Fatal("duplicate owner")
				}
				seen[a[i]] = true
			}
		}
	}
}

func TestOwnersBalanced(t *testing.T) {
	// Over many blocks, ownership load must be near-uniform.
	members := ids(20)
	counts := map[simnet.NodeID]int{}
	blocks, parts := 200, 20
	for b := 0; b < blocks; b++ {
		for idx := 0; idx < parts; idx++ {
			owners, err := Owners(uint64(b)*977+13, members, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			counts[owners[0]]++
		}
	}
	mean := float64(blocks*parts) / 20 // 200 each
	for id, c := range counts {
		if float64(c) < 0.7*mean || float64(c) > 1.3*mean {
			t.Fatalf("node %d owns %d chunks, mean %.0f: unbalanced", id, c, mean)
		}
	}
}

func TestOwnersMinimalDisruption(t *testing.T) {
	// Removing one member must only reassign the chunks that member owned.
	members := ids(12)
	removed := members[5]
	rest := make([]simnet.NodeID, 0, 11)
	for _, m := range members {
		if m != removed {
			rest = append(rest, m)
		}
	}
	moved, kept := 0, 0
	for b := uint64(0); b < 50; b++ {
		for idx := 0; idx < 12; idx++ {
			before, err := Owners(b, members, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			after, err := Owners(b, rest, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if before[0] == removed {
				moved++
				continue
			}
			if before[0] != after[0] {
				t.Fatalf("block %d chunk %d moved from %d to %d although owner survived",
					b, idx, before[0], after[0])
			}
			kept++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate test: moved=%d kept=%d", moved, kept)
	}
}

func TestIsOwnerAgreesWithOwners(t *testing.T) {
	members := ids(9)
	for idx := 0; idx < 9; idx++ {
		owners, err := Owners(7, members, idx, 3)
		if err != nil {
			t.Fatal(err)
		}
		ownerSet := map[simnet.NodeID]bool{}
		for _, o := range owners {
			ownerSet[o] = true
		}
		for _, m := range members {
			got, err := IsOwner(7, members, idx, 3, m)
			if err != nil {
				t.Fatal(err)
			}
			if got != ownerSet[m] {
				t.Fatalf("IsOwner(%d) = %v, Owners says %v", m, got, ownerSet[m])
			}
		}
	}
}
func BenchmarkOwners64(b *testing.B) {
	members := ids(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Owners(uint64(i), members, i%64, 2); err != nil {
			b.Fatal(err)
		}
	}
}
