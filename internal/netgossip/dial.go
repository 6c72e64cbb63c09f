package netgossip

import (
	"crypto/tls"
	"fmt"
	"net"
	"time"
)

// Dial opens the transport of one framed connection: TCP to addr and, when
// conf is non-nil, a TLS client handshake completed up front, so that a
// misconfigured, unauthentic or plaintext endpoint fails the dial loudly
// instead of poisoning the framed protocol with ciphertext. timeout bounds
// the connect and the handshake each: a black-holed endpoint (SYNs silently
// dropped) or a byte-trickling one cannot pin the caller for the OS's
// multi-minute connect timeout. An empty ServerName is filled from addr's
// host, like tls.Dial does.
func Dial(addr string, conf *tls.Config, timeout time.Duration) (net.Conn, error) {
	conn, err := (&net.Dialer{Timeout: timeout}).Dial("tcp", addr)
	if err != nil || conf == nil {
		return conn, err
	}
	if conf.ServerName == "" {
		if host, _, err := net.SplitHostPort(addr); err == nil {
			conf = conf.Clone()
			conf.ServerName = host
		}
	}
	tconn := tls.Client(conn, conf)
	_ = tconn.SetDeadline(time.Now().Add(timeout))
	if err := tconn.Handshake(); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("tls handshake: %w", err)
	}
	_ = tconn.SetDeadline(time.Time{})
	return tconn, nil
}
