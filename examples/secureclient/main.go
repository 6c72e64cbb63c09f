// Secureclient: drive a TLS-secured unsd daemon end to end with mutual
// authentication — the deployment shape of the paper's sampling service on
// an open network, where the transport (not good faith) keeps malicious
// nodes from owning the stream.
//
// Start a secured daemon (certificates as produced by any PKI; the CA file
// signs the client certificates the daemon will accept):
//
//	unsd -stream 127.0.0.1:7947 \
//	     -tls-cert server.pem -tls-key server.key -tls-client-ca ca.pem \
//	     -admin-token "$UNSD_ADMIN_TOKEN" \
//	     -snapshot-path pool.snap -snapshot-key-file snap.key
//
// then run this client against it:
//
//	go run ./examples/secureclient -addr 127.0.0.1:7947 \
//	    -ca ca.pem -cert client.pem -key client.key
//
// The client handshakes (proving its certificate chains to the daemon's
// CA and verifying the daemon's in return), pushes a batch, samples, and
// rides the σ′ stream for a few seconds — reconnecting with the same
// credentials if the daemon restarts underneath it.
package main

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"os"
	"time"

	"nodesampling/client"
	"nodesampling/nodeid"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "secureclient:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7947", "daemon stream address")
	caPath := flag.String("ca", "", "CA certificate (PEM) that signed the daemon's certificate")
	certPath := flag.String("cert", "", "this client's certificate (PEM), for mutual TLS")
	keyPath := flag.String("key", "", "this client's private key (PEM)")
	flag.Parse()
	if *caPath == "" || *certPath == "" || *keyPath == "" {
		flag.Usage()
		return fmt.Errorf("-ca, -cert and -key are required")
	}

	caPEM, err := os.ReadFile(*caPath)
	if err != nil {
		return err
	}
	roots := x509.NewCertPool()
	if !roots.AppendCertsFromPEM(caPEM) {
		return fmt.Errorf("no CA certificates in %s", *caPath)
	}
	cert, err := tls.LoadX509KeyPair(*certPath, *keyPath)
	if err != nil {
		return err
	}

	c, err := client.DialWithOptions(*addr, client.DialOptions{
		TLS: &tls.Config{
			RootCAs:      roots,
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS12,
		},
		Reconnect: true, // same credentials on every redial
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Println("mutually authenticated with", *addr)

	out, err := c.Subscribe(4096)
	if err != nil {
		return err
	}
	ids := make([]nodeid.NodeID, 256)
	for i := range ids {
		ids[i] = nodeid.NodeID(i + 1)
	}
	if err := c.PushBatch(ids); err != nil {
		return err
	}
	samples, err := c.Sample(5)
	if err != nil {
		return err
	}
	fmt.Println("uniform samples over TLS:", samples)

	seen := 0
	timeout := time.After(5 * time.Second)
	for seen < 100 {
		select {
		case id, ok := <-out:
			if !ok {
				return fmt.Errorf("stream closed: %v", c.Err())
			}
			_ = id
			seen++
		case <-timeout:
			fmt.Printf("σ′ stream delivered %d draws in 5s\n", seen)
			return nil
		}
	}
	fmt.Printf("σ′ stream delivered %d draws (reconnects: %d)\n", seen, c.Reconnects())
	return nil
}
