package main

import "fmt"

// The correctness checks work on plain counters so that the test can feed
// them doctored ones: a check that cannot fail checks nothing.

// subCounters is one subscription's accounting, daemon side and client side.
type subCounters struct {
	offered, delivered, dropped, filtered, capped uint64 // unsd_subscriber_*
	depth                                         uint64 // still buffered in the daemon
	received, clientDropped                       uint64 // what the harness saw
	emitDropped                                   uint64 // its daemon's unsd_pool_emit_dropped_ids_total
	expected                                      uint64 // draws the harness predicts were offered; 0 = no prediction
}

// counters is everything the checks read after the drain.
type counters struct {
	workload  string
	sent      uint64   // ids written to connection A, set-up fill included
	processed []uint64 // per daemon, unsd_pool_processed_ids_total
	dropped   []uint64 // per daemon, unsd_pool_dropped_ids_total
	subs      []subCounters

	badSamples int64 // Sample answers without exactly 16 known ids

	// sigma_fanout only.
	klIn, klOut float64

	// fleet_mixed only.
	forwarded    uint64 // member 0's unsd_cluster_forwarded_ids_total, summed
	memberMisses uint64 // unsd_cluster_sample_member_misses_total, summed
}

type check struct {
	name   string
	ok     bool
	detail string
}

func sum(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// runChecks applies checks (a)-(e) of the issue to one drained run.
func runChecks(c counters) []check {
	var out []check
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, check{name, ok, fmt.Sprintf(format, args...)})
	}

	// (a) conservation: every id written is processed or counted dropped,
	// on some daemon, exactly once.
	p, d := sum(c.processed), sum(c.dropped)
	add("a.ids_conserved", p+d == c.sent, "processed %d + dropped %d = %d, sent %d", p, d, p+d, c.sent)
	for i, s := range c.subs {
		acc := s.delivered + s.dropped + s.filtered + s.capped + s.depth
		add(fmt.Sprintf("a.sub%d_conserved", i), acc == s.offered,
			"delivered %d + dropped %d + filtered %d + capped %d + buffered %d = %d, offered %d",
			s.delivered, s.dropped, s.filtered, s.capped, s.depth, acc, s.offered)
		add(fmt.Sprintf("a.sub%d_socket_to_socket", i), s.received+s.clientDropped == s.delivered,
			"client received %d + client dropped %d, daemon delivered %d", s.received, s.clientDropped, s.delivered)
		if s.expected > 0 {
			add(fmt.Sprintf("a.sub%d_one_draw_per_id", i), s.offered+s.emitDropped == s.expected,
				"offered %d + emit-dropped %d, ids processed while subscribed %d", s.offered, s.emitDropped, s.expected)
		}
	}

	// (b) a blocking pool drops nothing, and every daemon runs -block.
	add("b.block_drops_nothing", d == 0, "dropped %d", d)

	switch c.workload {
	case "sigma_fanout":
		// (c) the sampler removes at least half of the flood's bias.
		add("c.gain_at_least_half", c.klOut <= 0.5*c.klIn, "KL out %.4f, KL in %.4f, G_KL %.4f", c.klOut, c.klIn, gain(c.klIn, c.klOut))
	case "fleet_mixed":
		// (e) member 0 keeps or forwards every id it was sent (its processed
		// count already holds the fallback ids), and no Sample lost a member.
		got := c.processed[0] + c.dropped[0] + c.forwarded
		add("e.member0_keeps_or_forwards", got == c.sent, "processed %d + dropped %d + forwarded %d = %d, sent %d",
			c.processed[0], c.dropped[0], c.forwarded, got, c.sent)
		add("e.no_member_missed", c.memberMisses == 0, "member misses %d", c.memberMisses)
	}
	// (d) every Sample answer has exactly 16 ids, all from the population.
	add("d.samples_well_formed", c.badSamples == 0, "malformed answers %d", c.badSamples)
	return out
}

// gain is the paper's G_KL (Relation 6): the share of the input's divergence
// from uniform that the sampler removed.
func gain(klIn, klOut float64) float64 {
	if klIn == 0 {
		return 0
	}
	return 1 - klOut/klIn
}
