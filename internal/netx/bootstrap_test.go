package netx

import (
	"testing"

	"icistrategy/internal/membership"
	"icistrategy/internal/simnet"
)

func TestBootstrapNewMemberOverTCP(t *testing.T) {
	_, addrs := startServers(t, 6)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := testBlocks(t, 4, 24)
	for _, b := range blocks {
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}

	// A 7th server joins.
	newcomer, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = newcomer.Close() })
	transferred, err := cl.BootstrapNewMember(newcomer.Addr())
	if err != nil {
		t.Fatal(err)
	}
	st := newcomer.Stats()
	if st.HeaderCount != int64(len(blocks)) {
		t.Fatalf("newcomer has %d headers, want %d", st.HeaderCount, len(blocks))
	}
	if int64(transferred) != st.ChunkCount {
		t.Fatalf("transferred %d, stored %d", transferred, st.ChunkCount)
	}
	// Exactly the chunks owned under the grown membership, no more.
	grown := make([]simnet.NodeID, 7)
	for i := range grown {
		grown[i] = simnet.NodeID(i)
	}
	want := 0
	for _, b := range blocks {
		seed := b.Hash().Uint64()
		for idx := 0; idx < 6; idx++ {
			owns, err := membership.IsOwner(seed, grown, idx, 2, 6)
			if err != nil {
				t.Fatal(err)
			}
			if owns {
				want++
			}
		}
	}
	if transferred != want {
		t.Fatalf("transferred %d chunks, placement says %d", transferred, want)
	}
	// The stored chunks verify: spot-check via the server's own store
	// accounting plus a direct chunk read.
	if want > 0 {
		c, err := Dial(newcomer.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		found := false
		for _, b := range blocks {
			seed := b.Hash().Uint64()
			for idx := 0; idx < 6 && !found; idx++ {
				owns, _ := membership.IsOwner(seed, grown, idx, 2, 6)
				if !owns {
					continue
				}
				resp, err := c.GetChunk(b.Hash(), idx)
				if err != nil {
					t.Fatalf("owned chunk unreadable: %v", err)
				}
				if len(resp.Data) == 0 {
					t.Fatal("empty chunk served")
				}
				found = true
			}
		}
		if !found {
			t.Fatal("no owned chunk located")
		}
	}
}

func TestBootstrapAgainstEmptyCluster(t *testing.T) {
	_, addrs := startServers(t, 3)
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	newcomer, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = newcomer.Close() })
	transferred, err := cl.BootstrapNewMember(newcomer.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if transferred != 0 {
		t.Fatalf("empty cluster transferred %d chunks", transferred)
	}
}
