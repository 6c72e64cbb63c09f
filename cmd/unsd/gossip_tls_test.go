package main

import (
	"crypto/tls"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"nodesampling/internal/netgossip"
)

// TestGossipListenerTLS: gossiping nodes dial the stream listener, so they
// meet its TLS plane (mutual TLS under -tls-client-ca) like every other
// framed connection. A plaintext gossiper and a certificate-less TLS
// gossiper are both turned away before a single id reaches the pool; a
// node presenting a certificate chained to the daemon's CA feeds it.
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
	push := func(id uint64) []byte {
		frame, err := netgossip.AppendFrame(nil, netgossip.Frame{Type: netgossip.FramePushBatch, IDs: []uint64{id}})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	if plain, err := net.Dial("tcp", gossipAddr); err == nil {
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			if _, err := plain.Write(push(7)); err != nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		plain.Close()
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

	// The real node: TLS with the kit's client certificate, pushing over
	// the authenticated connection.
	conn, err := tls.Dial("tcp", gossipAddr, kit.clientTLS(t, &kit.clientCert))
	if err != nil {
		t.Fatalf("mTLS dial of the stream listener: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(push(9)); err != nil {
		t.Fatal(err)
	}
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
