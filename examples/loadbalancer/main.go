// Load balancer: pick a backend uniformly at random from a gossiped
// membership stream that a Sybil attacker is flooding.
//
// This is the paper's first motivating application: "choosing a host at
// random among those that are available is often a choice that provides
// performance close to that offered by more complex selection criteria".
// A dispatcher that picks backends straight from the (biased) membership
// stream funnels most requests to attacker-advertised backends; routing
// the stream through the sampling service restores an even spread.
//
//	go run ./examples/loadbalancer
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"

	"nodesampling"
)

const (
	backends  = 64      // honest backends b0..b63
	announces = 150_000 // membership announcements heard
	requests  = 30_000  // requests to dispatch
)

func main() {
	if _, _, err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadbalancer:", err)
		os.Exit(1)
	}
}

// load is one dispatcher's outcome.
type load struct {
	attackerShare float64 // fraction of requests sent to the attacker
	honestHit     int     // honest backends that received any request
}

// run dispatches the requests both ways, prints the two load reports and
// returns them: naive, then through the sampling service.
func run() (naive, sampled load, err error) {
	// Backend identifiers, as a real deployment would derive them.
	ids := make([]nodesampling.NodeID, backends)
	for i := range ids {
		ids[i] = nodesampling.HashString(fmt.Sprintf("backend-%02d.svc.local", i))
	}
	attacker := nodesampling.HashString("evil-backend.svc.local")

	svc, err := nodesampling.NewPool(16, 1,
		nodesampling.WithSeed(1),
		nodesampling.WithSketch(10, 5))
	if err != nil {
		return load{}, load{}, err
	}
	defer func() { _ = svc.Close() }()

	// Membership announcements flow continuously (the attacker advertises
	// its backend 60% of the time) while requests arrive interleaved —
	// one dispatch every few announcements, as in a live system.
	r := rand.New(rand.NewSource(2))
	recent := make([]nodesampling.NodeID, 0, announces)
	naiveLoad := map[nodesampling.NodeID]int{}
	protectedLoad := map[nodesampling.NodeID]int{}
	dispatchEvery := announces / requests
	for i := 0; i < announces; i++ {
		id := attacker
		if r.Intn(5) >= 3 { // 40% honest
			id = ids[r.Intn(backends)]
		}
		recent = append(recent, id)
		if err := svc.Push(id); err != nil {
			return load{}, load{}, err
		}
		if i%dispatchEvery != 0 || i == 0 {
			continue
		}
		// Dispatch strategy A: naive — a random recently announced backend.
		naiveLoad[recent[r.Intn(len(recent))]]++
		// Dispatch strategy B: ask the sampling service.
		if id, ok := svc.Sample(); ok {
			protectedLoad[id]++
		}
	}

	fmt.Println("=== load balancing under a Sybil flood ===")
	fmt.Printf("%d honest backends, attacker advertises 60%% of the membership stream\n\n", backends)
	naive = report("naive dispatcher (raw stream)", naiveLoad, attacker)
	sampled = report("sampling-service dispatcher", protectedLoad, attacker)
	return naive, sampled, nil
}

func report(name string, counts map[nodesampling.NodeID]int, attacker nodesampling.NodeID) load {
	honest := make([]int, 0, len(counts))
	total := 0
	for id, c := range counts {
		total += c
		if id != attacker {
			honest = append(honest, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(honest)))
	maxHonest, minHonest := 0, 0
	if len(honest) > 0 {
		maxHonest, minHonest = honest[0], honest[len(honest)-1]
	}
	fmt.Printf("%s:\n", name)
	share := float64(counts[attacker]) / float64(total)
	fmt.Printf("  requests to attacker: %d / %d (%.1f%%)\n", counts[attacker], total, 100*share)
	fmt.Printf("  honest backends hit: %d / %d (max load %d, min load %d)\n\n",
		len(honest), backends, maxHonest, minHonest)
	return load{attackerShare: share, honestHit: len(honest)}
}
