package membership

import (
	"errors"
	"reflect"
	"testing"

	"icistrategy/internal/simnet"
)

func nodes(ids ...simnet.NodeID) []simnet.NodeID { return ids }

func TestNewRejectsMalformedMaps(t *testing.T) {
	cases := []struct {
		name   string
		epochs []Epoch
	}{
		{"empty", nil},
		{"nonpositional", []Epoch{{Seq: 1, Members: nodes(1)}}},
		{"memberless", []Epoch{{Seq: 0}}},
		{"height regression", []Epoch{{Seq: 0, Members: nodes(1, 2)}, {Seq: 1, FromHeight: 9, Members: nodes(1)}, {Seq: 2, FromHeight: 4, Members: nodes(1, 2)}}},
		{"duplicate id", []Epoch{{Seq: 0, Members: nodes(1, 1)}}},
		{"duplicate address", []Epoch{{Seq: 0, Members: nodes(1, 2), Addrs: []string{"a", "a"}}}},
		{"address count", []Epoch{{Seq: 0, Members: nodes(1, 2), Addrs: []string{"a"}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.epochs); !errors.Is(err, ErrBadMap) {
			t.Errorf("%s: err = %v, want ErrBadMap", tc.name, err)
		}
	}
	var m Map
	if _, err := m.Push(0, nodes(1, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Push(5, nodes(1, 1), nil); !errors.Is(err, ErrBadMap) {
		t.Fatalf("Push accepted a duplicate member: %v", err)
	}
	if m.Len() != 1 {
		t.Fatalf("rejected Push grew the map to %d epochs", m.Len())
	}
}

func TestAtResolvesWriteEpochWithoutAllocating(t *testing.T) {
	m, err := New([]Epoch{
		{Seq: 0, Members: nodes(0, 1, 2, 3)},
		{Seq: 1, FromHeight: 5, Members: nodes(0, 1, 2)},
		{Seq: 2, FromHeight: 7, Members: nodes(0, 1)},    // shadowed
		{Seq: 3, FromHeight: 7, Members: nodes(0, 1, 4)}, // wins
	})
	if err != nil {
		t.Fatal(err)
	}
	for h, want := range map[uint64]int{0: 0, 4: 0, 5: 1, 6: 1, 7: 3, 1 << 40: 3} {
		if got := m.At(h).Seq; got != want {
			t.Errorf("At(%d) = epoch %d, want %d", h, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = m.At(6) }); n != 0 {
		t.Fatalf("At allocates %.0f times per call", n)
	}
}

func TestIdentifyKeepsPublishedIdentities(t *testing.T) {
	// Epoch 0 numbers a..d positionally; b retires, so epoch 1 is a, c, d.
	m, err := New([]Epoch{
		{Seq: 0, Members: nodes(0, 1, 2, 3), Addrs: []string{"a", "b", "c", "d"}},
		{Seq: 1, FromHeight: 3, Members: nodes(0, 2, 3), Addrs: []string{"a", "c", "d"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Identify([]string{"c", "a", "d", "b", "e", "f"})
	want := nodes(2, 0, 3, 1, 4, 5) // b keeps its old ID; e and f are new
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Identify = %v, want %v", got, want)
	}
	var none *Map
	if got := none.Identify([]string{"x", "y"}); !reflect.DeepEqual(got, nodes(0, 1)) {
		t.Fatalf("Identify without a map = %v, want positional", got)
	}
	if a := m.Addr(1); a != "b" {
		t.Fatalf("Addr(1) = %q, want the retired member's address", a)
	}
}

func TestSourcesUnionsWriteAndNewestOwners(t *testing.T) {
	wrote := &Epoch{Members: nodes(0, 1, 2, 3, 4, 5)}
	newest := &Epoch{Seq: 1, Members: nodes(0, 2, 3, 4, 5)}
	for idx := 0; idx < 6; idx++ {
		w, _ := Owners(9, wrote.Members, idx, 2)
		n, _ := Owners(9, newest.Members, idx, 2)
		want := Union(append([]simnet.NodeID(nil), w...), NoMember, n)
		if got := Sources(9, idx, 2, wrote, newest, NoMember); !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: Sources = %v, want %v", idx, got, want)
		}
		if got := Sources(9, idx, 2, wrote, newest, w[0]); Contains(got, w[0]) {
			t.Fatalf("chunk %d: Sources kept the skipped member %d", idx, w[0])
		}
		if got := Sources(9, idx, 2, wrote, wrote, NoMember); !reflect.DeepEqual(got, w) {
			t.Fatalf("chunk %d: one-epoch Sources = %v, want the owners %v", idx, got, w)
		}
	}
	// Replication is clamped to a shrunk epoch's size.
	if got := Sources(9, 0, 3, &Epoch{Members: nodes(7)}, &Epoch{Members: nodes(7)}, NoMember); !reflect.DeepEqual(got, nodes(7)) {
		t.Fatalf("clamped Sources = %v, want [7]", got)
	}
}

func TestGainersAreTheLeaversDisplacedReplicas(t *testing.T) {
	old := nodes(0, 1, 2, 3, 4, 5, 6, 7)
	const leaver = 3
	next := nodes(0, 1, 2, 4, 5, 6, 7)
	for idx := 0; idx < 64; idx++ {
		before, _ := Owners(11, old, idx, 2)
		after, _ := Owners(11, next, idx, 2)
		gained := Gainers(11, idx, 2, old, next, leaver)
		if !Contains(before, leaver) {
			if gained != nil {
				t.Fatalf("chunk %d: leaver owned nothing but Gainers = %v", idx, gained)
			}
			continue
		}
		if len(gained) != 1 || !Contains(after, gained[0]) || Contains(before, gained[0]) {
			t.Fatalf("chunk %d: Gainers = %v, owners %v -> %v", idx, gained, before, after)
		}
	}
}
