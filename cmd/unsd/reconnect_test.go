package main

import (
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"nodesampling"
	"nodesampling/client"
)

// subAccounting is the /stats subscriber row the reconnect test tracks.
type subAccounting struct {
	Offered   uint64 `json:"offered"`
	Delivered uint64 `json:"delivered"`
	Filtered  uint64 `json:"filtered"`
	Every     int    `json:"every"`
}

func subscriberRow(t *testing.T, url string) (subAccounting, bool) {
	t.Helper()
	var stats struct {
		Subscribers []subAccounting `json:"subscribers"`
	}
	getJSON(t, url+"/stats", &stats)
	if len(stats.Subscribers) != 1 {
		return subAccounting{}, false
	}
	return stats.Subscribers[0], true
}

// TestStreamReconnectDecimationPhaseResets pins the documented decimation
// semantics across a daemon restart: the restarted daemon never issued the
// resume token the client's auto-resubscribe presents, so it starts a
// fresh server-side decimation window and the k-1 draws the old session
// had already counted toward the next delivery are forgotten. The reset
// can only stretch the spacing between two deliveries — the re-issued
// subscription must see a full k fresh offers before its first delivery,
// never fewer — so a decimated consumer's rate cap survives the restart.
func TestStreamReconnectDecimationPhaseResets(t *testing.T) {
	const every = 5
	o := defaultOptions()
	d1, ln1 := testStreamDaemon(t, o)
	addr := ln1.Addr().String()
	ts1 := httptest.NewServer(d1.handler())

	c, err := client.DialWithOptions(addr, client.DialOptions{
		Reconnect:  true,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.SubscribeEvery(64, every)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the subscription on the first daemon", func() bool {
		_, ok := subscriberRow(t, ts1.URL)
		return ok
	})

	// every-1 ids: all filtered, nothing delivered — the window is one
	// offer short when the daemon dies.
	if err := c.PushBatch([]nodesampling.NodeID{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pre-crash offers to be accounted", func() bool {
		row, ok := subscriberRow(t, ts1.URL)
		return ok && row.Offered == every-1
	})
	if row, _ := subscriberRow(t, ts1.URL); row.Delivered != 0 || row.Filtered != every-1 {
		t.Fatalf("pre-crash accounting %+v, want 0 delivered, %d filtered", row, every-1)
	}

	// Crash the daemon; bring a fresh one (empty pool) back on the same
	// stream address and let the client re-subscribe.
	ts1.Close()
	d1.Close()
	d2, err := newDaemon(defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)
	var ln2 net.Listener
	for i := 0; i < 100; i++ {
		if ln2, err = d2.listenStream(addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	_ = ln2
	ts2 := httptest.NewServer(d2.handler())
	defer ts2.Close()
	waitFor(t, "the re-issued subscription on the second daemon", func() bool {
		row, ok := subscriberRow(t, ts2.URL)
		return ok && row.Every == every
	})

	// The fresh window: another every-1 offers must still deliver nothing.
	// (Were the old session's phase carried over, the first post-restart
	// offer would complete the old window and deliver early.)
	if err := c.PushBatch([]nodesampling.NodeID{11, 12, 13, 14}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the post-restart offers to be accounted", func() bool {
		row, ok := subscriberRow(t, ts2.URL)
		return ok && row.Offered == every-1
	})
	if row, _ := subscriberRow(t, ts2.URL); row.Delivered != 0 {
		t.Fatalf("delivery before %d fresh offers after reconnect: %+v", every, row)
	}
	select {
	case id := <-out:
		t.Fatalf("stream delivered %d fewer than %d offers after the restart", id, every)
	default:
	}

	// The every-th fresh offer completes the window and delivers.
	if err := c.PushBatch([]nodesampling.NodeID{15}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first post-restart delivery", func() bool {
		row, ok := subscriberRow(t, ts2.URL)
		return ok && row.Delivered == 1
	})
	select {
	case id := <-out:
		if id < 11 || id > 15 {
			t.Fatalf("post-restart delivery %d outside the pushed population", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accounted delivery never reached the client channel")
	}
}
