package netgossip

import (
	"crypto/tls"
	"net"
	"strings"
	"testing"
	"time"
)

// TestTCPEndToEnd carries frames across a real TCP connection opened by
// Dial: what AppendFrame writes on one side, the buffer-reusing reader
// decodes on the other, frame for frame.
func TestTCPEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan []uint64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(received)
			return
		}
		defer conn.Close()
		fr := NewFrameReader(conn)
		var ids []uint64
		for {
			f, err := fr.Read()
			if err != nil || f.Type != FramePushBatch {
				break
			}
			ids = append(ids, f.IDs...)
		}
		received <- ids
	}()

	conn, err := Dial(ln.Addr().String(), nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for id := uint64(1); id <= 30; id++ {
		if buf, err = AppendFrame(buf, Frame{Type: FramePushBatch, IDs: []uint64{id, id + 100}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case ids := <-received:
		if len(ids) != 60 {
			t.Fatalf("received %d ids across the TCP link, want 60", len(ids))
		}
		for i := 0; i < 30; i++ {
			if ids[2*i] != uint64(i+1) || ids[2*i+1] != uint64(i+101) {
				t.Fatalf("frame %d carried %v, want [%d %d]", i, ids[2*i:2*i+2], i+1, i+101)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for the frames to cross the TCP link")
	}
}

// TestConnectFailure: Dial fails loudly on a dead port, and a TLS dial of a
// plaintext endpoint fails the handshake instead of returning a connection
// that would poison the framed protocol with ciphertext.
func TestConnectFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil, time.Second); err == nil {
		t.Error("dial of a dead port should fail")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = conn.Write([]byte("plaintext, not a TLS ServerHello\n"))
		conn.Close()
	}()
	if _, err := Dial(ln.Addr().String(), &tls.Config{}, time.Second); err == nil {
		t.Fatal("TLS dial of a plaintext endpoint should fail")
	} else if !strings.Contains(err.Error(), "tls handshake") {
		t.Fatalf("error %v does not name the handshake", err)
	}
}

// TestLegacyClientRefusedLoudly is the codec half of the v1 retirement
// contract (the daemon half lives in cmd/unsd): the head of a retired v1
// batch frame decodes to an error that names the retired and replacement
// protocols and fits in the FrameError a server echoes before hanging up.
func TestLegacyClientRefusedLoudly(t *testing.T) {
	_, err := NewFrameReader(strings.NewReader("\x75\x01\x00\x00\x00\x01\x00")).Read()
	if err == nil {
		t.Fatal("v1 batch header decoded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "v1") || !strings.Contains(msg, "version 2") {
		t.Fatalf("refusal %q does not name the retired and replacement protocols", msg)
	}
	if _, err := AppendFrame(nil, Frame{Type: FrameError, Msg: msg}); err != nil {
		t.Fatalf("refusal %q does not fit an Error frame: %v", msg, err)
	}
}
