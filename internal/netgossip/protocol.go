// Package netgossip is the deployable form of the node sampling service: a
// peer that exchanges node identifiers with its neighbours over real
// connections (TCP or any net.Conn) and feeds everything it hears into the
// knowledge-free sampler. It is the concrete realisation of the paper's
// Figure 1 — "node identifiers periodically gossiped by nodes" arriving as
// the input stream σ_i of the local sampling component — including the part
// the paper leaves to the deployment: wire format, connection management,
// and the push-gossip loop.
//
// The wire protocol is the framed protocol of frame.go (version 2):
// length-prefixed, type-tagged frames with every bound checked before any
// allocation, so a malicious peer can neither stall nor bloat a correct
// node — it can only do what the adversary model already allows: inject
// many ids. Gossip peers exchange FramePushBatch frames on persistent
// connections; the one-way v1 batch protocol (magic 0x75) is retired, and
// a client still speaking it gets a FrameError naming the replacement
// before the connection drops.
package netgossip

// legacyMagic is the retired v1 batch protocol's magic byte ('u' for
// uniform). The framed decoder recognises it only to refuse it loudly:
// one byte is enough to tell a stale client from line noise.
const legacyMagic = 0x75

// MaxBatch is the largest number of ids a single message may carry.
// Bounding per-message work means a flood still has to arrive as many
// frames, which the reader paces one at a time.
const MaxBatch = 4096
