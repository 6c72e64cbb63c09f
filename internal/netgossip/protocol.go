// Package netgossip is the wire of the node sampling service: the codec of
// the framed protocol (frame.go, version 2) and the dial that opens a framed
// connection (dial.go). The unsd daemon's stream listener, the client
// package, the fleet's member links and the load generator all speak it; a
// gossiping node is simply a connection that pushes FramePushBatch frames.
//
// Frames are length-prefixed and type-tagged, with every bound checked
// before any allocation, so a malicious sender can neither stall nor bloat
// a correct node — it can only do what the adversary model already allows:
// inject many ids. The one-way v1 batch protocol (magic 0x75) is retired;
// the decoder recognises its first byte so a server can answer a stale
// client with a FrameError naming the replacement before it hangs up.
package netgossip

// legacyMagic is the retired v1 batch protocol's magic byte ('u' for
// uniform). The framed decoder recognises it only to refuse it loudly:
// one byte is enough to tell a stale client from line noise.
const legacyMagic = 0x75

// MaxBatch is the largest number of ids a single message may carry.
// Bounding per-message work means a flood still has to arrive as many
// frames, which the reader paces one at a time.
const MaxBatch = 4096
