package netx

import (
	"fmt"
	"strings"
	"testing"

	"icistrategy/internal/simnet"
)

func mapServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return s, c
}

func epoch(n int, from uint64, ids ...uint64) EpochInfo {
	e := EpochInfo{Epoch: n, FromHeight: from}
	for _, id := range ids {
		e.Members = append(e.Members, MemberInfo{ID: id, Addr: fmt.Sprintf("m%d", id)})
	}
	return e
}

func TestClusterMapNewestWins(t *testing.T) {
	_, c := mapServer(t)

	// Fresh server: empty map.
	m, err := c.GetClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Fatalf("fresh server holds %d epochs", len(m))
	}

	two := []EpochInfo{epoch(0, 0, 1, 2, 3), epoch(1, 9, 1, 2)}
	if err := c.SetClusterMap(two); err != nil {
		t.Fatal(err)
	}
	// A stale (shorter) publish is acknowledged but ignored.
	if err := c.SetClusterMap(two[:1]); err != nil {
		t.Fatal(err)
	}
	m, err = c.GetClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[1].Epoch != 1 || m[1].FromHeight != 9 || len(m[1].Members) != 2 {
		t.Fatalf("map = %+v, want the two-epoch publish intact", m)
	}
	// A newer publish replaces it.
	three := append(append([]EpochInfo(nil), two...), epoch(2, 12, 1, 2, 4))
	if err := c.SetClusterMap(three); err != nil {
		t.Fatal(err)
	}
	m, _ = c.GetClusterMap()
	if len(m) != 3 || m[2].Epoch != 2 {
		t.Fatalf("map = %+v, want three epochs", m)
	}
}

func TestClusterMapRejectsMalformed(t *testing.T) {
	_, c := mapServer(t)
	cases := []struct {
		name   string
		epochs []EpochInfo
	}{
		{"empty", nil},
		{"nonpositional", []EpochInfo{epoch(1, 0, 1)}},
		{"gap", []EpochInfo{epoch(0, 0, 1), epoch(2, 4, 1)}},
		{"memberless epoch", []EpochInfo{{Epoch: 0}}},
		// An epoch starting below its predecessor would re-address blocks
		// the older epoch already placed.
		{"height regression", []EpochInfo{epoch(0, 0, 1, 2), epoch(1, 9, 1), epoch(2, 4, 1, 2)}},
		// A duplicate ID inflates the part count and silently halves the
		// replication of the chunks it owns.
		{"duplicate id", []EpochInfo{{Epoch: 0, Members: []MemberInfo{{ID: 1, Addr: "a"}, {ID: 1, Addr: "b"}}}}},
		{"duplicate address", []EpochInfo{{Epoch: 0, Members: []MemberInfo{{ID: 1, Addr: "a"}, {ID: 2, Addr: "a"}}}}},
	}
	for _, tc := range cases {
		err := c.SetClusterMap(tc.epochs)
		if err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Fatalf("%s: err = %v, want malformed-request rejection", tc.name, err)
		}
	}
	if m, _ := c.GetClusterMap(); len(m) != 0 {
		t.Fatal("rejected publish mutated server state")
	}
}

func TestPublishEpochSynthesizesGenesis(t *testing.T) {
	s1, _ := mapServer(t)
	s2, _ := mapServer(t)
	cl, err := NewCluster([]string{s1.Addr(), s2.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// No map published anywhere: the first PublishEpoch synthesizes epoch 0
	// from the constructor roster and appends the new membership as epoch 1.
	n, err := cl.PublishEpoch([]simnet.NodeID{0}, []string{s1.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("epoch = %d, want 1", n)
	}
	c, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.GetClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("map has %d epochs, want 2", len(m))
	}
	if len(m[0].Members) != 2 || m[0].Members[0].Addr != s1.Addr() {
		t.Fatalf("genesis epoch = %+v, want the constructor roster", m[0])
	}
	if len(m[1].Members) != 1 || m[1].FromHeight != 0 {
		t.Fatalf("epoch 1 = %+v, want one member from height 0 (no headers yet)", m[1])
	}

	// RetireMember refuses addresses outside the roster and the last member.
	if _, err := cl.RetireMember("127.0.0.1:1"); err == nil {
		t.Fatal("retired a non-member")
	}
	solo, err := NewCluster([]string{s1.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if _, err := solo.RetireMember(s1.Addr()); err == nil {
		t.Fatal("retired the last member")
	}
}

// TestPublishEpochNeverStartsBelowNewest covers a height probe that reaches
// only members lagging behind the map: the highest header they hold is
// below the newest epoch's start, and a new epoch starting there would
// re-address blocks the newest epoch already placed.
func TestPublishEpochNeverStartsBelowNewest(t *testing.T) {
	s1, c1 := mapServer(t)
	s2, c2 := mapServer(t)
	both := []MemberInfo{{ID: 0, Addr: s1.Addr()}, {ID: 1, Addr: s2.Addr()}}
	published := []EpochInfo{{Epoch: 0, Members: both}, {Epoch: 1, FromHeight: 9, Members: both}}
	for _, c := range []*Client{c1, c2} {
		if err := c.SetClusterMap(published); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := NewCluster([]string{s1.Addr(), s2.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.PublishEpoch([]simnet.NodeID{0}, []string{s1.Addr()}); err != nil {
		t.Fatal(err)
	}
	m, err := c2.GetClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[2].FromHeight != 9 {
		t.Fatalf("map = %+v, want epoch 2 starting at the newest epoch's height 9", m)
	}
}
