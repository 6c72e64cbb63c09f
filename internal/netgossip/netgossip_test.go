package netgossip

import (
	"net"
	"strings"
	"testing"
	"time"

	"nodesampling/internal/core"
	"nodesampling/internal/shard"
)

func peerConfig(self uint64) Config {
	return Config{
		Self: self, C: 15, K: 8, S: 4,
		Fanout: 2, ForwardBuffer: 16, ForwardPerPush: 2,
		Seed: self + 1,
	}
}

// TestLegacyClientRefusedLoudly pins the v1 retirement contract: a client
// that opens a gossip connection and speaks the retired one-way batch
// protocol gets a FrameError naming the replacement before the peer drops
// the connection — not a silent reset.
func TestLegacyClientRefusedLoudly(t *testing.T) {
	p, err := NewPeer(peerConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := net.Pipe()
	if err := p.AddConn(a); err != nil {
		t.Fatal(err)
	}
	// The head of a v1 batch frame: magic 'u', version 1, count 1, first
	// payload byte — exactly the framed header's length, so the write
	// completes on the synchronous pipe before the refusal comes back.
	legacy := []byte{legacyMagic, 1, 0, 0, 0, 1, 0}
	if _, err := b.Write(legacy); err != nil {
		t.Fatal(err)
	}
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := ReadFrame(b)
	if err != nil {
		t.Fatalf("no loud refusal frame: %v", err)
	}
	if f.Type != FrameError {
		t.Fatalf("refusal frame type %d, want FrameError", f.Type)
	}
	if !strings.Contains(f.Msg, "v1") || !strings.Contains(f.Msg, "version 2") {
		t.Fatalf("refusal message %q does not name the retired and replacement protocols", f.Msg)
	}
	waitFor(t, "legacy connection to be dropped", func() bool {
		return p.NumConns() == 0
	})
}

// TestPeerWireFormatIsFramed pins the wire bytes after the fold-in: a
// PushRound reaches the network as a FramePushBatch frame the framed
// decoder accepts — there is exactly one decoder left.
func TestPeerWireFormatIsFramed(t *testing.T) {
	p, err := NewPeer(peerConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := net.Pipe()
	if err := p.AddConn(a); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 3; i++ {
			_, _ = p.PushRound()
		}
	}()
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := ReadFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FramePushBatch {
		t.Fatalf("gossip round frame type %d, want FramePushBatch", f.Type)
	}
	if len(f.IDs) == 0 || f.IDs[0] != 11 {
		t.Fatalf("gossip batch %v, want the own id first", f.IDs)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Self: 1, C: 0, K: 8, S: 4, Fanout: 1},
		{Self: 1, C: 5, K: 0, S: 4, Fanout: 1},
		{Self: 1, C: 5, K: 8, S: 0, Fanout: 1},
		{Self: 1, C: 5, K: 8, S: 4, Fanout: 0},
		{Self: 1, C: 5, K: 8, S: 4, Fanout: 1, ForwardBuffer: -1},
		{Self: 1, C: 5, K: 8, S: 4, Fanout: 1, ForwardPerPush: MaxBatch},
	}
	for i, cfg := range bad {
		if _, err := NewPeer(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

// meshedPeers wires n peers into a full mesh over in-memory pipes.
func meshedPeers(t *testing.T, n int) []*Peer {
	t.Helper()
	peers := make([]*Peer, n)
	for i := range peers {
		p, err := NewPeer(peerConfig(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		t.Cleanup(func() { _ = p.Close() })
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := net.Pipe()
			if err := peers[i].AddConn(a); err != nil {
				t.Fatal(err)
			}
			if err := peers[j].AddConn(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return peers
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestMeshGossipPropagatesAllIDs(t *testing.T) {
	const n = 5
	peers := meshedPeers(t, n)
	for round := 0; round < 60; round++ {
		for _, p := range peers {
			if _, err := p.PushRound(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every peer must eventually have heard every other peer's id (readers
	// are asynchronous, so poll).
	for i, p := range peers {
		p := p
		waitFor(t, "full id coverage", func() bool {
			stats := p.InputStats()
			for j := 0; j < n; j++ {
				if j != i && stats[uint64(j)] == 0 {
					return false
				}
			}
			return true
		})
		if id, ok := p.Sample(); !ok || id >= n {
			t.Fatalf("peer %d sample (%d, %v) outside the overlay", i, id, ok)
		}
		if len(p.Memory()) == 0 {
			t.Fatalf("peer %d has empty memory", i)
		}
	}
}

func TestInjectFloodIsAbsorbed(t *testing.T) {
	peers := meshedPeers(t, 4)
	attacker := peers[0]
	sybil := []uint64{1000, 1001, 1002}
	for round := 0; round < 150; round++ {
		for _, p := range peers[1:] {
			if _, err := p.PushRound(); err != nil {
				t.Fatal(err)
			}
		}
		if err := attacker.Inject(sybil); err != nil {
			t.Fatal(err)
		}
	}
	victim := peers[1]
	waitFor(t, "attack traffic to arrive", func() bool {
		return victim.InputStats()[1000] > 50
	})
	stats := victim.InputStats()
	var sybilIn, totalIn uint64
	for id, c := range stats {
		totalIn += c
		if id >= 1000 {
			sybilIn += c
		}
	}
	if frac := float64(sybilIn) / float64(totalIn); frac < 0.3 {
		t.Fatalf("attack too weak to be meaningful: sybil input share %v", frac)
	}
	// The sampler's memory must not be monopolised by the three sybil ids.
	mem := victim.Memory()
	sybilSlots := 0
	for _, id := range mem {
		if id >= 1000 {
			sybilSlots++
		}
	}
	if sybilSlots == len(mem) {
		t.Fatalf("memory fully captured by sybil ids: %v", mem)
	}
}

// TestPeerFeedsSink wires a peer to a sharded pool sink: received batches
// must land in the pool instead of a peer-local sampler, and Sample/Memory
// must answer through the sink.
func TestPeerFeedsSink(t *testing.T) {
	sampler, err := core.NewFactory(core.DefaultStrategy, core.StrategyParams{K: 8, S: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shard.New(shard.Config{
		Shards:   4,
		Buffer:   16,
		Block:    true,
		Seed:     5,
		Capacity: 10,
		Sampler:  sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	front, err := NewPeer(Config{Self: 1, Sink: pool, Fanout: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	sender, err := NewPeer(peerConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	a, b := net.Pipe()
	if err := front.AddConn(a); err != nil {
		t.Fatal(err)
	}
	if err := sender.AddConn(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := sender.PushRound(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "ids to reach the pool", func() bool {
		return pool.Stats().Processed > 0
	})
	if id, ok := front.Sample(); !ok || id != 7 {
		t.Fatalf("front sample = (%d, %v), want the sender id 7", id, ok)
	}
	mem := front.Memory()
	if len(mem) == 0 || mem[0] != 7 {
		t.Fatalf("front memory = %v, want the sender id", mem)
	}
	// The front-end still records stream statistics itself.
	if front.InputStats()[7] == 0 {
		t.Fatal("front did not record input stats")
	}
}

func TestDisableInputStats(t *testing.T) {
	sink := &sinkOnly{}
	p, err := NewPeer(Config{Self: 1, Sink: sink, Fanout: 1, Seed: 4, DisableInputStats: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ingest([]uint64{10, 11, 12})
	if stats := p.InputStats(); stats != nil {
		t.Fatalf("InputStats = %v, want nil when disabled", stats)
	}
	if sink.n != 3 {
		t.Fatalf("sink received %d ids, want 3", sink.n)
	}
}

// sinkOnly is a BatchSink without SampleSource, to pin down the degraded
// behaviour of Sample/Memory on a pure forwarding front-end.
type sinkOnly struct{ n int }

func (s *sinkOnly) PushBatch(ids []uint64) error { s.n += len(ids); return nil }

func TestPeerWithSampleBlindSink(t *testing.T) {
	p, err := NewPeer(Config{Self: 1, Sink: &sinkOnly{}, Fanout: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok := p.Sample(); ok {
		t.Fatal("sample ok on a sample-blind sink")
	}
	if mem := p.Memory(); mem != nil {
		t.Fatalf("memory = %v, want nil", mem)
	}
}

func TestPushRoundWithoutConns(t *testing.T) {
	p, err := NewPeer(peerConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	delivered, err := p.PushRound()
	if err != nil || delivered != 0 {
		t.Fatalf("PushRound on isolated peer = (%d, %v)", delivered, err)
	}
}

func TestCloseLifecycle(t *testing.T) {
	peers := meshedPeers(t, 3)
	if err := peers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := peers[0].Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := peers[0].PushRound(); err == nil {
		t.Error("PushRound after close should fail")
	}
	if err := peers[0].Inject([]uint64{1}); err == nil {
		t.Error("Inject after close should fail")
	}
	a, _ := net.Pipe()
	if err := peers[0].AddConn(a); err == nil {
		t.Error("AddConn after close should fail")
	}
	// The surviving peers lose the connection eventually and keep working.
	waitFor(t, "neighbours to drop the closed peer", func() bool {
		return peers[1].NumConns() == 1 && peers[2].NumConns() == 1
	})
	if _, err := peers[1].PushRound(); err != nil {
		t.Fatal(err)
	}
}

func TestGarbageOnWireDropsConnection(t *testing.T) {
	p, err := NewPeer(peerConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := net.Pipe()
	if err := p.AddConn(a); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "garbage connection to be dropped", func() bool {
		return p.NumConns() == 0
	})
}

func TestTCPEndToEnd(t *testing.T) {
	server, err := NewPeer(peerConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	client, err := NewPeer(peerConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server to accept", func() bool { return server.NumConns() == 1 })

	for i := 0; i < 30; i++ {
		if _, err := client.PushRound(); err != nil {
			t.Fatal(err)
		}
		if _, err := server.PushRound(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "ids to cross the TCP link", func() bool {
		return server.InputStats()[200] > 0 && client.InputStats()[100] > 0
	})
}

func TestConnectFailure(t *testing.T) {
	p, err := NewPeer(peerConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Connect("127.0.0.1:1"); err == nil {
		t.Error("connect to a dead port should fail")
	}
	if err := p.AddConn(nil); err == nil {
		t.Error("nil conn should fail")
	}
}
