package telemetry

import (
	"strconv"

	"nodesampling/internal/autoscale"
	"nodesampling/internal/shard"
)

// PoolCollector exports the shard pool's ingest and fan-out accounting: the
// pool-wide LoadSignals (cumulative across retired shards, so every counter
// stays monotone across a live Resize), the per-shard breakdown labelled by
// shard index, and the per-subscriber σ′ delivery accounting labelled by
// subscription id. Everything is read at scrape time from the same
// snapshot surfaces /stats uses; the ingest hot path is untouched.
func PoolCollector(p *shard.Pool) Collector {
	return CollectorFunc(func() []Family {
		sig := p.LoadSignals()
		st := p.Stats()

		fams := []Family{
			C("unsd_pool_processed_ids_total",
				"Ids processed by the pool's samplers, including shards retired by Resize.",
				float64(sig.Processed)),
			C("unsd_pool_dropped_ids_total",
				"Ids dropped at full shard queues, including shards retired by Resize.",
				float64(sig.Dropped)),
			C("unsd_pool_emit_dropped_ids_total",
				"Sigma-prime draws lost because the emitter lagged the shards.",
				float64(sig.EmitDropped)),
			G("unsd_pool_queue_depth_batches",
				"Batches waiting across all shard queues.",
				float64(sig.QueueLen)),
			G("unsd_pool_queue_capacity_batches",
				"Total shard queue capacity in batches (shards x buffer).",
				float64(sig.QueueCap)),
			G("unsd_pool_queue_max_depth_batches",
				"Deepest single shard queue, in batches.",
				float64(sig.MaxQueueLen)),
			G("unsd_pool_shards",
				"Current shard count of the elastic plane.",
				float64(sig.Shards)),
			C("unsd_pool_map_epoch",
				"Shard map epoch; increments on every completed Resize.",
				float64(sig.Epoch)),
			G("unsd_pool_subscribers",
				"Live sigma-prime stream subscriptions.",
				float64(len(st.Subscribers))),
		}

		shardFams := []Family{
			{Name: "unsd_shard_processed_ids_total", Help: "Ids processed by this shard's sampler.", Type: Counter},
			{Name: "unsd_shard_dropped_ids_total", Help: "Ids dropped at this shard's full queue.", Type: Counter},
			{Name: "unsd_shard_halvings_total", Help: "Decay halvings applied to this shard's sketch.", Type: Counter},
			{Name: "unsd_shard_queue_depth_batches", Help: "Batches waiting in this shard's queue.", Type: Gauge},
			{Name: "unsd_shard_memory_ids", Help: "Current sampler memory size |Gamma| of this shard.", Type: Gauge},
		}
		for i, s := range st.Shards {
			lbl := []Label{{Name: "shard", Value: strconv.Itoa(i)}}
			vals := []float64{
				float64(s.Processed), float64(s.Dropped), float64(s.Halvings),
				float64(s.QueueDepth), float64(s.MemorySize),
			}
			for j := range shardFams {
				shardFams[j].Samples = append(shardFams[j].Samples, Sample{Labels: lbl, Value: vals[j]})
			}
		}
		fams = append(fams, shardFams...)

		subFams := []Family{
			{Name: "unsd_subscriber_offered_ids_total", Help: "Sigma-prime draws offered to this subscription.", Type: Counter},
			{Name: "unsd_subscriber_delivered_ids_total", Help: "Sigma-prime draws delivered to this subscription.", Type: Counter},
			{Name: "unsd_subscriber_dropped_ids_total", Help: "Sigma-prime draws dropped on this subscription's full buffer.", Type: Counter},
			{Name: "unsd_subscriber_filtered_ids_total", Help: "Sigma-prime draws skipped by this subscription's decimation.", Type: Counter},
			{Name: "unsd_subscriber_capped_ids_total", Help: "Sigma-prime draws discarded by this subscription's delivery rate cap.", Type: Counter},
			{Name: "unsd_subscriber_queue_depth_ids", Help: "Draws buffered for this subscription.", Type: Gauge},
			{Name: "unsd_subscriber_queue_capacity_ids", Help: "Buffer capacity of this subscription.", Type: Gauge},
		}
		for _, s := range st.Subscribers {
			lbl := []Label{{Name: "subscriber", Value: strconv.FormatUint(s.ID, 10)}}
			vals := []float64{
				float64(s.Offered), float64(s.Delivered), float64(s.Dropped),
				float64(s.Filtered), float64(s.Capped), float64(s.Depth), float64(s.Capacity),
			}
			for j := range subFams {
				subFams[j].Samples = append(subFams[j].Samples, Sample{Labels: lbl, Value: vals[j]})
			}
		}
		return append(fams, subFams...)
	})
}

// AutoscaleCollector exports the controller's live state: the smoothed
// pressure the decisions run on, tick and resize counts, the configured
// band, and how much of the current cooldown remains. Nil-safe — a daemon
// running without an autoscaler simply exports nothing from it.
func AutoscaleCollector(c *autoscale.Controller) Collector {
	return CollectorFunc(func() []Family {
		if c == nil {
			return nil
		}
		st := c.State()
		return []Family{
			G("unsd_autoscale_enabled",
				"Whether the autoscaler is armed (1) or observing only (0).",
				B(st.Enabled)),
			G("unsd_autoscale_load_ewma",
				"Smoothed load pressure in [0,1] driving resize decisions.",
				st.EWMA),
			G("unsd_autoscale_last_pressure",
				"Raw load pressure measured on the most recent tick.",
				st.Last.Pressure),
			C("unsd_autoscale_ticks_total",
				"Control loop ticks since the controller started.",
				float64(st.Ticks)),
			C("unsd_autoscale_resizes_total",
				"Completed grow/shrink resizes issued by the controller.",
				float64(st.Resizes)),
			G("unsd_autoscale_cooldown_remaining_seconds",
				"Seconds left in the post-resize cooldown; zero when free to act.",
				st.CooldownRemaining.Seconds()),
			G("unsd_autoscale_min_shards",
				"Lower bound of the controller's shard range.",
				float64(st.Min)),
			G("unsd_autoscale_max_shards",
				"Upper bound of the controller's shard range.",
				float64(st.Max)),
		}
	})
}
