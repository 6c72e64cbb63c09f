package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"nodesampling/internal/netgossip"
)

// sinkListener accepts framed connections, counts PushBatch ids, and
// answers the round-trip frames the latency sampler relies on: Ping with a
// token-echoing Pong and Sample with a minimal SampleResp.
func sinkListener(t *testing.T) (net.Listener, *atomic.Uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var ids atomic.Uint64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := netgossip.ReadFrame(conn)
					if err != nil {
						return
					}
					switch f.Type {
					case netgossip.FramePushBatch:
						ids.Add(uint64(len(f.IDs)))
					case netgossip.FramePing:
						if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FramePong, Token: f.Token}); err != nil {
							return
						}
					case netgossip.FrameSample:
						if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameSampleResp, IDs: []uint64{1}}); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln, &ids
}

func metricsServer(t *testing.T) *httptest.Server {
	t.Helper()
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		fmt.Fprintf(w, "# HELP unsd_pool_processed_ids_total x\n# TYPE unsd_pool_processed_ids_total counter\nunsd_pool_processed_ids_total %d\n", n*1000)
		fmt.Fprintf(w, "# HELP unsd_pool_dropped_ids_total x\n# TYPE unsd_pool_dropped_ids_total counter\nunsd_pool_dropped_ids_total %d\n", n)
		fmt.Fprintf(w, "# HELP unsd_uniformity_input_kl x\n# TYPE unsd_uniformity_input_kl gauge\nunsd_uniformity_input_kl 0.25\n")
		fmt.Fprintf(w, "# HELP unsd_cluster_sample_fanouts_total x\n# TYPE unsd_cluster_sample_fanouts_total counter\nunsd_cluster_sample_fanouts_total %d\n", n*8)
		fmt.Fprintf(w, "# HELP unsd_cluster_sample_rpcs_total x\n# TYPE unsd_cluster_sample_rpcs_total counter\nunsd_cluster_sample_rpcs_total{member=\"a\"} %d\nunsd_cluster_sample_rpcs_total{member=\"b\"} %d\n", n, n)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestRunTextReport(t *testing.T) {
	ln, ids := sinkListener(t)
	ms := metricsServer(t)
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-addr", ln.Addr().String(), "-metrics", ms.URL,
		"-count", "3000", "-population", "256", "-rate", "0",
		"-batch", "500", "-scrape-ms", "1", "-seed", "3",
		"-latency-sample", "2",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	for _, phase := range []string{"uniform", "targeted-flood", "churn-storm", "slow-trickle", "recovery"} {
		if !strings.Contains(out, "phase "+phase) {
			t.Fatalf("report missing phase %q:\n%s", phase, out)
		}
	}
	if !strings.Contains(out, "drop fraction") {
		t.Fatalf("report missing daemon deltas:\n%s", out)
	}
	if !strings.Contains(out, "0.25 member exchanges per Sample") {
		t.Fatalf("report missing the fleet member's sample plane:\n%s", out)
	}
	if !strings.Contains(out, "input KL max") {
		t.Fatalf("report missing uniformity trajectory:\n%s", out)
	}
	if !strings.Contains(out, "push-ack:") || !strings.Contains(out, "sample rpc:") {
		t.Fatalf("report missing client-observed latency lines:\n%s", out)
	}
	if got := ids.Load(); got != 5*3000 {
		t.Fatalf("sink saw %d ids, want %d", got, 5*3000)
	}
}

func TestRunJSONReport(t *testing.T) {
	ln, _ := sinkListener(t)
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-addr", ln.Addr().String(),
		"-count", "500", "-population", "128", "-rate", "0", "-json",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		Name    string
		Offered int
	}
	if err := json.Unmarshal([]byte(sb.String()), &reports); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, sb.String())
	}
	if len(reports) != 5 {
		t.Fatalf("got %d reports, want 5", len(reports))
	}
	for _, rep := range reports {
		if rep.Offered != 500 {
			t.Fatalf("phase %s offered %d, want 500", rep.Name, rep.Offered)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), nil, &sb); err == nil {
		t.Fatal("missing -addr accepted")
	}
	if err := run(context.Background(), []string{"-addr", "x", "-tls-cert", "only-cert"}, &sb); err == nil {
		t.Fatal("-tls-cert without -tls-key accepted")
	}
	if err := run(context.Background(), []string{"-addr", "x", "-tls-ca", "/does/not/exist"}, &sb); err == nil {
		t.Fatal("unreadable -tls-ca accepted")
	}
}

func TestClientTLSConfig(t *testing.T) {
	if cfg, err := clientTLSConfig("", "", ""); err != nil || cfg != nil {
		t.Fatalf("plaintext config = %v, %v", cfg, err)
	}
	if _, err := clientTLSConfig("", "cert", ""); err == nil {
		t.Fatal("cert without key accepted")
	}
	dir := t.TempDir()
	bad := dir + "/bad.pem"
	if err := os.WriteFile(bad, []byte("not a pem"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := clientTLSConfig(bad, "", ""); err == nil {
		t.Fatal("PEM-free CA file accepted")
	}
}
