// Package nodeid defines the node identifier type and nothing else, so that
// code which only talks to a sampling service — the client package, a load
// generator, a node's own gossip layer — can name ids without linking the
// sampler. The nodesampling package re-exports it as nodesampling.NodeID;
// the two names denote the same type.
package nodeid

// NodeID identifies a node. The paper draws identifiers from {1, …, 2^160}
// (SHA-1 images); this implementation uses their first 64 bits, which keeps
// the collision probability negligible at any simulated scale while leaving
// the algorithms unchanged.
type NodeID uint64
