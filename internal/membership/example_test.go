package membership_test

import (
	"fmt"
	"log"

	"icistrategy/internal/membership"
	"icistrategy/internal/simnet"
)

// ExampleOwners shows rendezvous chunk placement: deterministic, balanced,
// and minimally disruptive when membership changes.
func ExampleOwners() {
	members := []simnet.NodeID{10, 20, 30, 40}
	owners, err := membership.Owners(12345, members, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(owners), "owners for chunk 2")
	again, _ := membership.Owners(12345, members, 2, 2)
	fmt.Println("deterministic:", owners[0] == again[0] && owners[1] == again[1])
	// Output:
	// 2 owners for chunk 2
	// deterministic: true
}
