package main

import (
	"crypto/tls"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"nodesampling/internal/netgossip"
)

// TestGossipListenerTLS: gossiping peers dial the stream listener, so they
// meet its TLS plane (mutual TLS under -tls-client-ca) like every other
// framed connection. A plaintext gossiper and a certificate-less TLS
// gossiper are both turned away before a single id reaches the pool; a
// peer presenting a certificate chained to the daemon's CA feeds it.
func TestGossipListenerTLS(t *testing.T) {
	kit := newCertKit(t)
	ctx, cancel := testContext(t)
	var sb safeBuilder
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-http", "127.0.0.1:0", "-stream", "127.0.0.1:0",
			"-shards", "2", "-c", "5", "-k", "6", "-s", "3", "-seed", "13",
			"-tls-cert", kit.serverCertPath, "-tls-key", kit.serverKeyPath,
			"-tls-client-ca", kit.caPath,
		}, &sb)
	}()
	gossipAddr := waitForListener(t, &sb, "stream listening on ")
	httpAddr := waitForListener(t, &sb, "http listening on ")
	hc := &http.Client{Transport: &http.Transport{TLSClientConfig: kit.clientTLS(t, nil)}}
	processed := func() uint64 {
		t.Helper()
		resp, err := hc.Get("https://" + httpAddr + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Processed uint64 `json:"processed"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats.Processed
	}

	// Plaintext gossiper: the TLS listener must shut the connection during
	// the handshake, so pushing either errors or lands nowhere. A bounded
	// burst is enough — the /stats assertion below is the real check.
	plain, err := netgossip.NewPeer(netgossip.Config{Self: 7, C: 10, K: 8, S: 4, Fanout: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Connect(gossipAddr); err == nil {
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			if _, err := plain.PushRound(); err != nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Certificate-less TLS gossiper: the handshake itself must fail under
	// RequireAndVerifyClientCert. tls.Dial returns before the server
	// requests the client certificate, so force the handshake explicitly.
	if conn, err := tls.Dial("tcp", gossipAddr, kit.clientTLS(t, nil)); err == nil {
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := conn.Handshake(); err == nil {
			// The server may only reject once the first record arrives.
			if _, err := conn.Write([]byte{0}); err == nil {
				buf := make([]byte, 1)
				if _, err := conn.Read(buf); err == nil {
					t.Fatal("certificate-less TLS connection served by the mTLS stream listener")
				}
			}
		}
		conn.Close()
	}
	if got := processed(); got != 0 {
		t.Fatalf("unauthenticated gossip fed the pool: processed = %d, want 0", got)
	}

	// The real peer: TLS with the kit's client certificate, speaking the
	// gossip protocol over the authenticated connection.
	sender, err := netgossip.NewPeer(netgossip.Config{Self: 9, C: 10, K: 8, S: 4, Fanout: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	conn, err := tls.Dial("tcp", gossipAddr, kit.clientTLS(t, &kit.clientCert))
	if err != nil {
		t.Fatalf("mTLS dial of the stream listener: %v", err)
	}
	if err := sender.AddConn(conn); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 500; i++ {
			if _, err := sender.PushRound(); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	waitFor(t, "authenticated gossip ids to reach the pool", func() bool {
		return processed() > 0
	})

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down")
	}
}
