package main

import "fmt"

// Example runs the whole program; its output is deterministic.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// === population migration followed by a fresh Sybil flood ===
	// 300 ids leave, 300 ids join, attacker sends every 2th element
	//
	// window after switch           plain sampler     with decay
	// first 10000                           3.67%          3.57%
	// first 50000                           3.67%          2.95%
	// first 100000                          3.60%          2.87%
	//
	// (uniform share would be 0.33%; the attacker holds 50% of the raw stream)
}
