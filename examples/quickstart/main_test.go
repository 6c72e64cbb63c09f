package main

import "fmt"

// Example runs the whole program; its output is deterministic.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// === uniform node sampling: quickstart ===
	// population: 500 ids, stream: 200000 elements
	// input  stream: sybil id seen 100067 times (50.0% of stream), 500 distinct ids
	// output stream: sybil id emitted 5213 times (2.6% of stream), 500 distinct ids
	// uniform share would be 0.20%
	// current sample: node 40
	// to defeat this 15x5 sketch with 99.99% certainty, an adversary needs
	//   158 distinct certified ids for a targeted attack, 173 for a flooding attack
}
