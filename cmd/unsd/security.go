package main

// The daemon's security plane: the listener-side and member-dialling TLS
// configurations and the bearer-token gate on the admin surface.

import (
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// loadTLSConfigs builds the listener-side TLS configurations from the
// -tls-* options. Both listeners serve the same certificate; the framed
// stream listener additionally demands and verifies a client certificate
// when -tls-client-ca is set — mutual TLS is the peer-authentication story
// of the framed protocol, while HTTP callers authenticate per request with
// the bearer token instead. Nil configs mean the daemon runs plaintext
// (the backwards-compatible default).
func loadTLSConfigs(o options) (httpConf, streamConf *tls.Config, err error) {
	if o.tlsCert == "" && o.tlsKey == "" && o.tlsClientCA == "" {
		return nil, nil, nil
	}
	if o.tlsCert == "" || o.tlsKey == "" {
		return nil, nil, errors.New("-tls-cert and -tls-key must be set together (-tls-client-ca requires both)")
	}
	cert, err := tls.LoadX509KeyPair(o.tlsCert, o.tlsKey)
	if err != nil {
		return nil, nil, fmt.Errorf("load TLS certificate: %w", err)
	}
	base := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	streamConf = base.Clone()
	if o.tlsClientCA != "" {
		if streamConf.ClientCAs, err = readCertPool(o.tlsClientCA); err != nil {
			return nil, nil, err
		}
		streamConf.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return base, streamConf, nil
}

// readCertPool loads a PEM CA bundle into a certificate pool.
func readCertPool(path string) (*x509.CertPool, error) {
	pemBytes, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pemBytes) {
		return nil, fmt.Errorf("no CA certificates in %s", path)
	}
	return pool, nil
}

// loadClusterTLS builds the client-side TLS configuration for dialling
// other members' stream listeners: the -cluster-ca bundle verifies them,
// and the daemon's own serving certificate doubles as its client
// certificate (mutual TLS) when one is configured.
func loadClusterTLS(caFile, certFile, keyFile string) (*tls.Config, error) {
	roots, err := readCertPool(caFile)
	if err != nil {
		return nil, err
	}
	cfg := &tls.Config{RootCAs: roots, MinVersion: tls.VersionTLS12}
	if certFile != "" && keyFile != "" {
		cert, err := tls.LoadX509KeyPair(certFile, keyFile)
		if err != nil {
			return nil, fmt.Errorf("load cluster client certificate: %w", err)
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	return cfg, nil
}

// requireToken gates a handler behind the configured admin bearer token.
// The status split mirrors HTTP semantics and stays disjoint from the
// handlers' own 400/409 vocabulary: 401 (with a WWW-Authenticate
// challenge) when no credential was presented at all, 403 when one was
// presented and does not match. With no token configured the handler runs
// open — security is opt-in, and ROADMAP tracks the default.
func (d *daemon) requireToken(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !d.adminTokenSet {
			h(w, r)
			return
		}
		auth := r.Header.Get("Authorization")
		if auth == "" {
			d.authFailures.Add(1)
			d.logger.Warn("auth failure", "status", http.StatusUnauthorized,
				"path", r.URL.Path, "remote", r.RemoteAddr, "reason", "no credential")
			w.Header().Set("WWW-Authenticate", `Bearer realm="unsd admin"`)
			httpError(w, http.StatusUnauthorized, "authorization required (Bearer token)")
			return
		}
		const scheme = "Bearer "
		if len(auth) < len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) ||
			!tokenMatches(auth[len(scheme):], d.adminTokenHash) {
			d.authFailures.Add(1)
			d.logger.Warn("auth failure", "status", http.StatusForbidden,
				"path", r.URL.Path, "remote", r.RemoteAddr, "reason", "invalid token")
			httpError(w, http.StatusForbidden, "invalid bearer token")
			return
		}
		h(w, r)
	}
}

// tokenMatches compares a presented token against the configured token's
// digest in constant time. The presented side is hashed to the same fixed
// width, so the comparison leaks neither content nor length — a raw ==
// would let a remote caller binary-search the token byte by byte through
// response timing.
func tokenMatches(presented string, wantHash [sha256.Size]byte) bool {
	p := sha256.Sum256([]byte(presented))
	return subtle.ConstantTimeCompare(p[:], wantHash[:]) == 1
}
