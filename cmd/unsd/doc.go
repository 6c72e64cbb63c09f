// Command unsd is the uniform node sampling daemon: the deployable,
// high-throughput form of the paper's sampling service. It absorbs node
// identifiers from two directions — PushBatch frames on the stream
// listener (clients of the client package and gossiping nodes alike: the
// overlay's σ streams) and POST /push over HTTP — into a sharded
// sampling pool, and serves uniform samples, the pooled memory Γ, the
// continuous output stream σ′ and operational statistics.
//
// Usage:
//
//	unsd -http 127.0.0.1:8080 -stream 127.0.0.1:7947 -shards 8 -c 25
//
// HTTP endpoints:
//
//	POST /push      {"ids":[1,2,3]}    feed identifiers
//	GET  /sample?n=K                   K uniform samples (default 1; any
//	                                   present but invalid n answers 400)
//	GET  /memory                       the pooled sampling memory Γ
//	GET  /stats                        drops, per-shard depth, throughput,
//	                                   shard map epoch, per-subscriber
//	                                   delivery accounting
//	POST /resize    {"shards":N}       live re-partition to N shards: a
//	                                   flush barrier quiesces the pool, Γ
//	                                   and sketch state follow the moved
//	                                   ids; answers 409 + Retry-After while
//	                                   another resize or a snapshot is in
//	                                   flight
//	POST /snapshot                     write a durable snapshot to
//	                                   -snapshot-path now (409 while busy)
//	POST /autoscale {"enabled":b,...}  enable/disable/tune the autoscaler:
//	                                   min, max, grow_threshold,
//	                                   shrink_threshold, cooldown_ms —
//	                                   partial updates, {} reports state
//	POST /migrate   {"from_slot":a,    hand a slot range this member owns —
//	                 "to_slot":b,      its Γ ids and merged frequency state
//	                 "target":addr}    — to another cluster member, live;
//	                                   400 on a standalone daemon, 409
//	                                   while busy or when the range is not
//	                                   wholly owned here; behind the admin
//	                                   token like the other mutators
//	GET  /metrics                      Prometheus text exposition (v0.0.4):
//	                                   every pool/shard/subscriber/autoscale/
//	                                   stream/snapshot counter, the live
//	                                   uniformity gauge, and the latency
//	                                   histograms (snapshot write, resize,
//	                                   Sample, per-batch ingest, σ′
//	                                   emit→delivery lag); read-open unless
//	                                   -admin-token-all
//	GET  /trace                        the sampled ingest→σ′ span ring as
//	                                   Chrome trace-event JSON (load it in
//	                                   chrome://tracing or ui.perfetto.dev);
//	                                   behind the admin token when one is set
//
// Observability plane:
//
//	-log-level/-log-format  leveled structured logs (log/slog): connection
//	                     lifecycle, resize and autoscale decisions, snapshot
//	                     outcomes and auth failures carry structured fields;
//	                     -log-format json emits one JSON object per line.
//	                     The machine-parsed "<plane> listening on <addr>"
//	                     startup lines stay plain and stable.
//	-uniformity-window   sliding-window size of the live uniformity gauge:
//	                     /metrics exports the KL divergence to uniform of
//	                     the ingest window (unsd_uniformity_input_kl — rises
//	                     under a targeted flood), of a σ′ output window
//	                     (unsd_uniformity_output_kl — the live SLO), and the
//	                     paper's G_KL gain between them. 0 disables.
//	-pprof               mount net/http/pprof under /debug/pprof/ behind
//	                     the admin token (refuses to boot without one)
//	-trace-sample        record one in N ingest batches as a span tree —
//	                     ingest (wire batch) → shard (worker) → emit (σ′
//	                     queue wait) → delivery (hub fan-out) — in a bounded
//	                     in-memory ring served by GET /trace. Unsampled
//	                     batches cost one atomic add; 0 disables tracing.
//
// Latency histograms: /metrics exports fixed-bucket histogram families
// (unsd_*_duration_seconds / unsd_emit_delivery_lag_seconds) for snapshot
// writes, resize hand-offs, Sample calls on both the HTTP and stream
// surfaces, per-wire-batch ingest, and the lag between a shard worker
// emitting σ′ draws and the hub fanning them out. dashboards/unsd.json is
// a committed Grafana dashboard over exactly these families.
//
// cmd/unsload is the companion load generator: it replays adversarial
// scenarios (uniform baseline, targeted flood, churn storm, slow-trickle
// bias) against a live daemon over the framed protocol while scraping
// /metrics, and reports achieved rate, drop fractions and the uniformity
// gauge's trajectory per phase.
//
// Security plane (all opt-in; without these flags the daemon trusts its
// network, which is only appropriate on loopback or inside a private
// enclave):
//
//	-tls-cert/-tls-key   serve TLS on the HTTP and framed stream listeners
//	-tls-client-ca       require and verify client certificates on the
//	                     framed stream listener (mutual TLS): a peer that
//	                     cannot present a certificate chained to this CA
//	                     never reaches the frame decoder
//	-admin-token         bearer token on the admin surface: the mutating
//	                     endpoints (/resize, /snapshot, /autoscale,
//	                     /migrate), GET /trace and the -pprof mount; falls
//	                     back to $UNSD_ADMIN_TOKEN so the secret stays out
//	                     of process listings. Requests without a credential
//	                     get 401 plus a WWW-Authenticate challenge;
//	                     requests with a wrong or malformed one get 403 —
//	                     disjoint from the handlers' own 400 (bad input)
//	                     and 409 (busy) vocabulary. Comparison is
//	                     constant-time. /sample, /memory, /stats and
//	                     /push stay open unless -admin-token-all gates
//	                     every endpoint.
//	-snapshot-key-file   a 32-byte AES-256 key (raw or 64 hex chars, file
//	                     mode 0600 enforced): snapshots are sealed with
//	                     AES-256-GCM in a versioned "UNSE" envelope, so a
//	                     blob at rest reveals neither the secret partition
//	                     salt nor the sampling state and cannot be
//	                     tampered with undetected. A wrong key refuses at
//	                     boot; plaintext (pre-encryption) blobs still
//	                     restore, and the next write seals them.
//	-snapshot-key-file-old  the previous key during a rotation: a blob that
//	                     fails under the new key is retried under this one
//	                     (with a warning), and the next snapshot write
//	                     re-seals it under the new key — rotation without a
//	                     plaintext intermediate. Retire the flag once the
//	                     blob has been rewritten.
//	-strict-snapshot-perms  refuse to restore a group/world-accessible
//	                     snapshot blob (default: warn and continue)
//
// With -autoscale the daemon runs a load-driven control loop
// (internal/autoscale) over the elastic shard plane: each
// -autoscale-interval it condenses the pool's load signals — queue
// occupancy, ingest drop rate, σ′ emit drops — into a smoothed pressure
// figure and grows or shrinks the shard set between -min-shards and
// -max-shards, with hysteresis and a post-resize cooldown so a one-batch
// spike cannot thrash the plane. An adversary flooding the input stream is
// met with more parallel capacity instead of silent sample loss, and the
// plane contracts again once the flood subsides. /stats reports the
// controller's state (pressure EWMA, last decision and reason, cooldown,
// resize count) under "autoscale".
//
// The -stream listener speaks the framed bidirectional protocol of
// internal/netgossip (and the public client package): a single persistent
// TCP connection pushes id batches up and receives σ′ stream frames,
// sample responses and pong keepalives down — the paper's stream-in/
// stream-out service shape, without per-sample HTTP round trips. A
// gossiping peer is simply a connection that only pushes. Subscribe frames
// carry a decimation interval (sample-every-k) and a per-second rate cap
// (token bucket, one-second burst), so modest consumers ride the hub at a
// rate they can afford; every subscribe is acknowledged with a resume
// token a reconnecting decimated subscriber presents to continue its
// 1-in-k phase where the dropped connection left off.
//
// Cluster plane (all members must share -seed and sampler flags):
//
//	-cluster             run as one member of a daemon fleet sharing the
//	                     sampling plane: ingest arriving at any member is
//	                     partitioned by the same salted rendezvous
//	                     placement the pool uses for its shards and
//	                     forwarded in batches to the owning members over
//	                     persistent framed connections, and Sample/SampleN
//	                     deal their draws among the members by actual |Γ|,
//	                     a share served from a reservoir of that member's
//	                     draws (≤ 10 ms old, each served once) — uniform over
//	                     the union whichever member answers. Requires
//	                     -stream, -members and an explicit shared -seed.
//	-members             comma-separated stream addresses of every member,
//	                     this daemon's own -stream address included; every
//	                     member must be started with the identical set
//	-cluster-ca          CA bundle verifying other members' stream
//	                     listeners; with -tls-cert/-tls-key the daemon's
//	                     serving certificate doubles as its client
//	                     certificate (mutual TLS between members)
//
// POST /migrate moves a slot range between members while the fleet runs
// (flush barrier, one versioned state blob, epoch-bumped ownership flip
// broadcast to every member — the moved ids' learned frequency estimates
// survive), /stats gains a "cluster" block (epoch, per-member connectivity
// and forwarding accounting), and /metrics gains the unsd_cluster_*
// families: membership, epoch, migration and per-member forwarding
// counters, and the sample plane — sample_fanouts_total (cluster Sample
// requests), sample_member_misses_total, sample_rpcs_total{member} (member
// exchanges; over fanouts: exchanges per Sample) and
// sample_draws_discarded_total{member} (fetched, never served).
//
// Durability: with -snapshot-path set the daemon restores the pool from
// the snapshot at boot (the snapshot governs shard count, memory capacity
// and sketch shape; mismatched -k/-s flags fail loudly), writes it
// periodically when -snapshot-interval is positive, and writes a final
// snapshot on graceful shutdown. The blob is the versioned format of
// internal/shard (magic "UNSS"): shard map + salt, per-shard Count-Min
// sketches and sampling memories Γ, decay epoch and counters — everything
// needed so a restarted daemon does not forget attacker frequencies. It
// embeds the secret partition salt; protect the file like key material —
// or better, set -snapshot-key-file and let the daemon seal it at rest.
//
// Identifiers are 64-bit; HTTP responses encode them as decimal strings
// and /push accepts numbers or strings, because JSON doubles corrupt
// integers above 2^53.
package main
