// Package nodesampling provides a uniform node sampling service that is
// robust against collusions of malicious (Byzantine) nodes, implementing
//
//	E. Anceaume, Y. Busnel, B. Sericola,
//	"Uniform Node Sampling Service Robust against Collusions of Malicious
//	Nodes", 43rd IEEE/IFIP DSN, 2013.
//
// # The problem
//
// Large-scale distributed systems (gossip overlays, DHTs, load balancers)
// need a primitive that returns the identifier of a node chosen uniformly at
// random from the system. The primitive is fed by an unbounded stream of
// node identifiers exchanged by the system — a stream that colluding
// malicious nodes can bias arbitrarily by injecting their own (Sybil)
// identifiers. A robust sampler must guarantee, despite such bias:
//
//   - Uniformity: at any time, every node has probability 1/n of being the
//     emitted sample;
//   - Freshness: every node keeps reappearing in the output forever.
//
// # The algorithms
//
// The package offers two one-pass strategies operating in memory sublinear
// in the population size:
//
//   - The knowledge-free sampler (NewSampler) — the deployable strategy. It
//     maintains a sampling memory Γ of c identifiers and a Count-Min sketch
//     of k×s counters. An arriving id j is admitted into Γ with probability
//     minσ/f̂_j (the sketch's smallest counter over j's estimated
//     frequency), evicting a uniform victim; every step outputs a uniform
//     element of Γ.
//   - The omniscient sampler (NewOmniscientSampler) — the reference
//     strategy, which knows each id's true occurrence probability p_j and
//     admits with probability min(p)/p_j. Its output is provably uniform
//     and fresh (the paper's Theorem 4), making it the gold standard the
//     knowledge-free strategy approximates.
//
// The defender's lever is memory: the adversary must mint at least L_{k,s}
// distinct certified identifiers to bias one victim id and E_k to bias all
// of them, both of which grow linearly with the sketch width k and are
// independent of the system size.
//
// # Sampler
//
// The knowledge-free sampler — single (NewSampler), per shard of a Pool,
// inside the unsd daemon — is built through core.NewFactory and driven
// through the internal core.PoolSampler contract: per-id and batch
// processing with σ′ emission, uniform Sample/SampleN over Γ, a decay step
// (halving the counters), empty cloning onto a shared hash family (what
// keeps shard states mergeable across Resize), and a self-contained binary
// state for snapshots. Snapshot blobs record the strategy name
// "knowledge-free"; a blob naming any other (including the retired
// "basalt") is refused by name, and pre-v2 blobs restore bit-identical.
//
// The attack table (unsattack -tournament, internal/adversary.RunTournament)
// runs it against four adversarial input models and scores the windowed KL
// divergence of input and output against uniform, plus the paper's G_KL
// gain (1 = all attack bias removed). A reference run (population 256,
// c=32, 16×4 sketch, 10 windows of 4096 ids, decay every 512):
//
//	ATTACK             INPUT_KL  OUTPUT_KL     G_KL
//	targeted-flood       2.1264     0.3107   0.8538
//	ballot-stuffing      1.8203     0.7863   0.5682
//	churn-storm          1.2274     0.8508   0.3065
//	slow-trickle         0.2067     0.2029   0.0119
//
// The sampler strips most of every bulk attack's divergence — the paper's
// headline result.
//
// # Concurrency and scale
//
// Samplers returned by the constructors are single-goroutine objects.
// Service wraps a sampler with a goroutine-backed pipeline (Push/Sample/
// Subscribe) safe for concurrent use.
//
// Pool is the horizontally scaled form: it partitions the input stream
// across N independent knowledge-free shards — each with its own sketch,
// memory Γ and worker goroutine — and ingests batches (PushBatch) so the
// hand-off cost is amortised over many identifiers. The partition is an
// epoch-versioned shard map: salted rendezvous hashing over a slot table,
// unpredictable to an adversary (no precomputable shard-flooding), O(1)
// per id, and stable between resizes. Sample draws a shard weighted by its
// current |Γ| (internal/rng's Quotas, the service's one Γ-weighted draw),
// then a uniform element of it — a uniform draw over the union of the
// memories, preserving Uniformity at the population level, while Freshness
// holds per shard. WithDecay on a Pool runs a single
// global decay clock: all shards halve their sketches on a shared epoch
// derived from the pool-wide ingest count, keeping their frequency
// estimates comparable even when the partition is momentarily skewed.
//
// # The elastic plane: Resize and snapshots
//
// The shard set is not fixed at construction. Pool.Resize re-partitions a
// live pool to a new shard count: a flush barrier quiesces the workers
// (the only ingestion stall), Γ entries move to their new owners under the
// next shard-map epoch, and sketch state follows by merging counter
// matrices — every shard's sketch is an empty clone of one pool template,
// so all shards share a hash family and their counters add exactly. An id
// that moves keeps a frequency estimate within standard Count-Min error of
// what a single global sketch would report, so the attack resistance the
// sketch provides survives the topology change. Rendezvous monotonicity
// keeps the movement minimal: growing moves ids only onto the new shards,
// shrinking only off the retired ones.
//
// The same machinery makes the pool durable. Pool.Snapshot serialises the
// whole plane — shard map and salt, per-shard sketches and memories, decay
// epoch and counters — into one versioned blob, and RestorePool revives it
// exactly: identical Γ, identical estimates, identical routing. A sampler
// restarted this way has not forgotten the attacker frequencies it spent
// the whole attack window learning, which is precisely the state the
// paper's defence depends on. The blob embeds the secret partition salt;
// store it like key material.
//
// Resize also has a policy layer: Pool.Topology and the pool's load
// signals (queue occupancy, ingest and σ′ drop counters) feed the
// internal/autoscale control loop, which the unsd daemon runs under
// -autoscale. It grows the shard plane when an input flood makes drops
// appear — the exact moment the paper's guarantees are under attack — and
// shrinks it back once the flood subsides, with EWMA smoothing, hysteresis
// and a post-resize cooldown so a single hostile burst cannot thrash the
// plane. Library users embedding a Pool can drive Resize with their own
// policy against the same signals.
//
// # The streaming output plane
//
// The paper's service is stream-in/stream-out: Algorithm 1 continuously
// emits the output stream σ′. Pool.Subscribe restores that surface at
// sharded throughput: shard workers draw one output element per ingested
// id (only while at least one subscription is live) and a subscription hub
// fans the draws out to every subscriber through fixed-capacity buffers
// with a non-blocking drop-oldest policy. A slow subscriber therefore
// loses the oldest buffered elements — which a sampling stream can always
// afford, since a later draw carries the same information — and never
// backpressures ingestion; Stats reports exact per-subscriber
// offered/delivered/dropped/filtered/capped accounting. From buffer to
// consumer a batch is the unit of delivery: a subscription's ring is
// drained with Next, which blocks until draws are buffered and moves up to
// a buffer's worth out under one lock, so the daemon's stream writer runs
// ring → Next → one StreamData frame → one socket write on a single
// goroutine per subscriber, allocating nothing per frame
// (unsd_subscriber_delivered_ids_total over unsd_stream_data_frames_total
// is the batch a write carries). The channels this package hands out
// (PoolSubscription.C, Service.Subscribe) sit on the hub's C, an adapter
// goroutine that feeds Next's batches into a channel id by id, started
// only for consumers that ask for it. Subscriptions may opt
// into decimation (SubscribeEvery): only every k-th draw is delivered, so
// a modest consumer rides a fast pool at a rate it can afford — a 1-in-k
// thinning of an i.i.d. uniform stream is itself i.i.d. uniform. A
// subscription can also be rate-capped (SubscribeRate, the client's
// SubscribeRate, the wire protocol's rate field): a token bucket of r
// tokens per second with a one-second burst drops draws beyond the cap
// before they reach the buffer — time-based where decimation is
// count-based, and like it a uniformity-preserving thinning; the drops are
// accounted separately ("capped") from buffer overflow. Over the framed
// stream protocol every subscription is also resumable: there is one
// Subscribe frame (capacity, interval, rate cap, resume token), its
// acknowledgement carries a resume token, and a reconnecting client that
// presents it continues the 1-in-k phase exactly where the dropped
// connection left off instead of restarting the count. Service
// fans out through the same hub, with the same accounting, decimation and
// rate caps, at single-sampler scale.
//
// # Hot path anatomy
//
// What an ingested id costs, measured at the daemon's operating point (unsd
// -c 25 -k 50 -s 10 -shards 4 -block, 1024-id frames uniform over 100 000
// ids: the ingest_saturate workload of benchmark/, one CPU saturated, CPU
// profile of that daemon). In-process rows are BENCH_13.json, end-to-end
// ones are in CHANGES.md (PR 13): 77 ns of daemon CPU per id, 12.9 M ids/s.
//
//   - Frame read and decode (~6 ns, 4 of them the read syscall): FrameReader
//     reads ahead through an 8 KiB buffer and decodes into buffers it keeps
//     (header included), so a steady stream allocates nothing per frame.
//   - Uniformity probe (~3 ns; UniformityProbeOffer 2.4): the gauge's input
//     window keeps 1 id in 8 — a hashed gate, a mask and a ring store under
//     one lock per batch; the histogram is built at scrape time.
//   - Cluster partition (fleet members only, ~7 ns): owners counted in one
//     pass and ids placed in a second, into one allocation per batch; a
//     forwarded batch is encoded into its member connection's one buffer.
//     A cluster Sample(16) beside it costs ~0.2 member exchanges, not 2.
//   - Shard partition and hand-off (~4 ns): a counting sort into a pooled,
//     reference-counted payload, then one enqueue per shard on a bounded
//     MPSC ring (one CAS per producer), amortised over the sub-batch.
//   - Sketch update (~43 ns; SketchAddEstimate/k50s10 37.0): the dominant
//     term. One fused Columns pass premixes the id once, then per row folds
//     the 128-bit a·u+b mod 2⁶¹−1 once and maps it to a column by Lemire's
//     fastrange (~29 ns for s = 10 rows); the add loop increments one counter
//     per row of the flat matrix (~10 ns) and the global minimum, which the
//     admission probability minσ/f̂ consults per id, is rescanned when its
//     last counter moves (~4 ns amortised).
//   - Admission (~15 ns): the Γ membership scan (~6 ns at c = 25), the
//     Bernoulli draw and, on a uniform stream, an eviction for most ids.
//   - Under the paper's targeted flood (80 % of ids one victim, so about two
//     arrivals in three repeat the id before them) a repeated id skips both
//     the s row hashes and the Γ scan: the sketch remembers whose columns
//     its scratch holds, and Γ its last membership answer (BENCH_32.json:
//     KnowledgeFreeProcessBatch/c25k50s10-flood 63 → 37 ns/id; end to end,
//     sigma_fanout daemon CPU 203 → 157 ns/id). Both memos are exact, so σ′
//     is bit-identical: only a new hash family (UnmarshalBinary) drops the
//     columns, and installing or evicting the remembered id updates the
//     answer. Unlike the rejected counting signature below, their upkeep is
//     two compares per mutation, not a rebuild. A uniform stream pays a
//     compare per id for each: ~3 ns on the in-process sketch row, not
//     visible end to end on ingest_saturate.
//
// Measured and rejected, all bit-identical and none a gain here: a fused
// hash-and-increment loop and a two-pass branch-free minimum rescan (both
// slower), a counting signature in front of the Γ scan (its upkeep on every
// eviction costs what it saves), and one premix shared by the shard map and
// the sketch (under 2 ns, and it re-versions every snapshot's routing).
//
// The committed BENCH_<pr>.json artifacts pin this budget over time;
// `unsbench -perf-compare old.json new.json` turns any two of them into a
// pass/fail regression verdict (CI gates on the previous artifact).
//
// # Securing the service edge
//
// The paper's adversary model assumes the sampler sees the stream the
// overlay actually sent — an assumption that collapses if the transport
// itself can be owned. The unsd daemon therefore carries an opt-in
// security plane end to end: TLS on the HTTP and framed stream listeners
// (-tls-cert/-tls-key), mutual-TLS peer authentication on the framed
// protocol (-tls-client-ca — an unauthenticated peer never reaches the
// frame decoder, so Sybil ids need a certificate before they need a
// collusion), constant-time bearer-token authentication on the mutating
// admin endpoints (-admin-token, 401/403 disjoint from the 400/409 input
// vocabulary), and AES-256-GCM sealing of snapshot blobs at rest
// (-snapshot-key-file) — the blob embeds the secret partition salt that
// keeps the shard map unpredictable, so an unprotected copy hands an
// adversary the very unpredictability the defence rests on. The client
// side mirrors the transport through DialOptions.TLS, composing with
// automatic reconnection: every redial re-handshakes with the same
// credentials before the subscription is re-issued.
//
// # Operating the daemon: observability
//
// A sampler whose guarantees are statistical needs instrumentation that
// speaks statistics. The unsd daemon exports a Prometheus text exposition
// on GET /metrics (internal/telemetry, dependency-free): every counter the
// pool, shards, subscribers, autoscaler, stream listener and snapshot path
// already keep — and a live uniformity gauge. The gauge holds sliding
// windows over the ingest stream σ and the output stream σ′ and exports
// their KL divergence to the uniform distribution plus the paper's G_KL
// gain between them (-uniformity-window sizes it): a targeted flood is
// visible as rising unsd_uniformity_input_kl, a failing sampler as rising
// unsd_uniformity_output_kl, and a healthy one as a gain near 1 — the
// paper's evaluation, continuously computed against live traffic, scrape
// by scrape. Collectors read atomic counters and snapshot surfaces at
// scrape time; nothing is added to the per-id ingest path. Structured
// leveled logs (-log-level, -log-format=text|json) cover connection
// lifecycle, resize and autoscale decisions, snapshot outcomes and auth
// failures; -pprof mounts the Go profiler behind the admin token.
//
// # Latency and tracing
//
// Counters say how much; histograms say how long. The daemon times five
// paths into fixed-bucket Prometheus histograms (atomic increments on the
// hot path, bucket scans only at scrape time): per-wire-batch ingest
// latency (unsd_ingest_batch_duration_seconds, one observation per batch
// from either surface — HTTP or stream), Sample/SampleN service time
// (unsd_sample_duration_seconds), the σ′ emit→delivery lag through the
// fan-out queue (unsd_emit_delivery_lag_seconds), snapshot write duration
// (unsd_snapshot_write_duration_seconds) and shard-pool resize hand-off
// time (unsd_resize_duration_seconds). For depth beyond distributions,
// -trace-sample=N records one in N ingest batches as a span tree — the
// ingest root, a shard span per worker sub-batch, and the σ′ emit and
// delivery spans (internal/spans: a bounded lock-free ring, one atomic add
// per unsampled batch) — served by GET /trace as Chrome trace-event JSON
// behind the admin token; open it in a trace viewer to see where a batch's
// time went. dashboards/unsd.json is a committed Grafana dashboard over
// exactly these families; CI fails if it ever queries a family the daemon
// does not export.
//
// Two tools close the loop. client.ScrapeMetrics fetches and parses one
// scrape programmatically. cmd/unsload replays adversarial load scenarios
// (uniform baseline, targeted flood, churn storm, slow-trickle bias —
// internal/adversary's attack shapes) against a live daemon over the
// framed protocol at a target rate while scraping /metrics, and reports
// per phase: achieved rate, the daemon's own processed/dropped deltas, the
// uniformity gauge's trajectory, and client-observed p50/p95/p99 latency
// for the push-ack and Sample round trips (-latency-sample) — push the
// attack, watch the gauge degrade, watch it recover, and cross-check the
// daemon's histograms from the outside.
//
// # Cluster operation
//
// One daemon's pool shards across cores; a fleet of daemons shards across
// machines, by lifting the pool's own placement abstraction one level.
// The salted rendezvous computation that assigns hash-space slots to shard
// workers (internal/shard.NewPlacement — epoch-versioned, salted by the
// shared seed, bit-identical across versions because persisted snapshots
// and mixed fleets both replay it) here assigns the same slots to member
// daemons, so an id's route is decided by identical arithmetic at both
// levels: first to a member, then within that member's pool to a shard.
//
// Start every member with -cluster, the same -members list, the same
// explicit -seed and sampler flags (internal/cluster sorts the list, so
// member indices agree everywhere). Ingest arriving at ANY member — HTTP or
// framed stream, gossiping peers included — is partitioned against the
// routing table: the locally-owned ids enter the local pool, the rest travel to their owner
// members in batches over persistent framed connections (FrameForward,
// tagged with the sender's placement epoch). An undeliverable batch falls
// back to local ingest: misplaced, never lost, and harmless to uniformity
// because cluster-wide sampling weights members by the |Γ| they actually
// hold. Sample and SampleN at any member are answered quota first: the
// draws are dealt among the members by a |Γ|-weighted multinomial — the
// pool's estimate-the-union trick across its shards, and the same function:
// rng.Quotas over member memories, in rounds of at most one frame's worth
// of draws — and each member supplies exactly its quota, the asked one from
// its pool, the others from a reservoir of their draws the asked member
// refills with one exchange (FrameSampleLocal: 256 draws or more, and |Γ|)
// when it runs dry or old: uniform over the union of member memories however
// unevenly ids are distributed, whichever member was asked, at every n. A
// remote draw is at most 10 ms old (an id stays in Γ until the stream evicts
// it), served once, and never outlives its connection — a member that is
// down is a counted miss.
//
// Ownership moves while the fleet runs. POST /migrate on a member that
// owns a slot range hands the range to another member: a flush barrier
// settles in-queue ids, the range's Γ ids and merged frequency state are
// exported and transferred as one versioned blob (FrameMigrateState), the
// target imports both before taking ownership, and the flip is installed
// under a bumped placement epoch and broadcast to the fleet
// (FramePlacementUpdate). An id's learned sketch evidence — the state the
// paper's defence spends the attack window accumulating — survives the
// move. The cluster plane exports its own metric families (epoch,
// per-member connectivity, forwarded and fallback ids, Sample requests,
// member exchanges, misses and discarded draws) through the same /metrics
// surface, and cmd/unsload drives a
// whole fleet at once (comma-separated -addr targets, per-phase reports
// merged across members). Client-side, DialCluster rotates across member
// addresses on reconnect, so a subscription outlives the member it
// happened to be attached to.
//
// Use Service for a single node's modest stream, Pool when one sampler
// cannot absorb the traffic, and the unsd daemon (cmd/unsd) to serve a
// Pool over the network: HTTP for request/response (plus POST /resize,
// POST /snapshot and POST /autoscale admin endpoints for the elastic
// plane), and a framed bidirectional stream protocol on one listener —
// push id batches up (an overlay's gossiping nodes dial it and do only
// that), receive σ′ down, one persistent connection per consumer. With -snapshot-path the daemon restores its
// pool at boot and persists it (fsync-durably) periodically and at
// shutdown; with -autoscale it resizes itself from observed load. The client package (nodesampling/client)
// speaks the stream protocol, optionally surviving daemon restarts with
// automatic backoff-and-resubscribe:
//
//	c, _ := client.DialWithOptions("127.0.0.1:7947", client.DialOptions{Reconnect: true})
//	out, _ := c.SubscribeEvery(1024, 4) // every 4th σ′ draw
//	c.PushBatch(ids)       // σ  upstream
//	for id := range out {  // σ′ downstream
//	    ...
//	}
package nodesampling
