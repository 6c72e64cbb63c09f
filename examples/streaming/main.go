// Streaming: push batches up and consume σ′ down over one TCP connection.
//
// The demo embeds a minimal framed-protocol server (the same wire format
// cmd/unsd serves on -stream) backed by a public Pool, then drives it with
// the public client package: a single persistent connection carries id
// batches upstream — including a Sybil flood — while the sampling
// service's continuous output stream σ′ flows back downstream. The client
// counts how much of the output the attacker captured; the uniform sampler
// holds it near the attacker's fair population share, far below its share
// of the input traffic.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"nodesampling"
	"nodesampling/client"
	"nodesampling/internal/netgossip"
)

const (
	honestNodes = 400
	sybilIDs    = 3
	sybilBase   = uint64(1 << 32)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "streaming:", err)
		os.Exit(1)
	}
}

func run() error {
	pool, err := nodesampling.NewPool(25, 4, nodesampling.WithSeed(1), nodesampling.WithSketch(30, 5))
	if err != nil {
		return err
	}
	defer pool.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go serve(ln, pool)

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()

	out, err := c.Subscribe(8192)
	if err != nil {
		return err
	}

	// The input stream: every honest id once per round, the three Sybil ids
	// fifty times each per round — the attacker owns ~27% of the traffic.
	batch := make([]nodesampling.NodeID, 0, honestNodes+50*sybilIDs)
	for i := 0; i < honestNodes; i++ {
		batch = append(batch, nodesampling.NodeID(i+1))
	}
	for s := 0; s < sybilIDs; s++ {
		for r := 0; r < 50; r++ {
			batch = append(batch, nodesampling.NodeID(sybilBase+uint64(s)))
		}
	}
	// Keep the input stream flowing until the consumer has seen enough; the
	// output plane sheds what the connection cannot carry (drop-oldest), so
	// the producer never has to pace itself.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.PushBatch(batch); err != nil {
				return
			}
		}
	}()

	// Consume σ′ from the same connection and measure the attacker's share.
	var total, sybil int
	timeout := time.After(30 * time.Second)
	for total < 50000 {
		select {
		case id, ok := <-out:
			if !ok {
				return fmt.Errorf("stream closed early: %v", c.Err())
			}
			total++
			if uint64(id) >= sybilBase {
				sybil++
			}
		case <-timeout:
			return fmt.Errorf("timed out after %d stream elements", total)
		}
	}

	inputShare := float64(50*sybilIDs) / float64(honestNodes+50*sybilIDs)
	fairShare := float64(sybilIDs) / float64(honestNodes+sybilIDs)
	gotShare := float64(sybil) / float64(total)
	fmt.Printf("attacker input share:  %5.1f%% of the pushed stream\n", 100*inputShare)
	fmt.Printf("attacker fair share:   %5.1f%% of the population\n", 100*fairShare)
	fmt.Printf("attacker output share: %5.1f%% of %d σ′ draws over one TCP conn (dropped client-side: %d)\n",
		100*gotShare, total, c.StreamDropped())
	if s, err := c.Sample(3); err == nil {
		fmt.Printf("on-demand samples over the same connection: %v\n", s)
	}
	return nil
}

// serve accepts framed connections and answers them from the pool — a
// pocket edition of the unsd daemon's -stream endpoint.
func serve(ln net.Listener, pool *nodesampling.Pool) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go handle(conn, pool)
	}
}

func handle(conn net.Conn, pool *nodesampling.Pool) {
	defer conn.Close()
	var wmu sync.Mutex // the stream goroutine and the reply path share conn
	write := func(f netgossip.Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return netgossip.WriteFrame(conn, f)
	}
	var sub *nodesampling.PoolSubscription
	defer func() {
		if sub != nil {
			sub.Cancel()
		}
	}()
	for {
		f, err := netgossip.ReadFrame(conn)
		if err != nil {
			return
		}
		switch f.Type {
		case netgossip.FramePushBatch:
			ids := make([]nodesampling.NodeID, len(f.IDs))
			for i, id := range f.IDs {
				ids[i] = nodesampling.NodeID(id)
			}
			_ = pool.PushBatch(ids)
		case netgossip.FrameSample:
			n := int(f.N)
			if n > netgossip.MaxBatch {
				n = netgossip.MaxBatch // the response frame's capacity
			}
			samples := pool.SampleN(n)
			raw := make([]uint64, len(samples))
			for i, id := range samples {
				raw[i] = uint64(id)
			}
			if err := write(netgossip.Frame{Type: netgossip.FrameSampleResp, IDs: raw}); err != nil {
				return
			}
		case netgossip.FrameSubscribe:
			if sub != nil {
				continue
			}
			s, err := pool.Subscribe(int(f.N))
			if err != nil {
				return
			}
			sub = s
			// Every Subscribe is acknowledged; this server keeps no
			// decimation phase to resume, so its token is 0.
			if err := write(netgossip.Frame{Type: netgossip.FrameSubAck}); err != nil {
				return
			}
			go streamOut(s, write)
		case netgossip.FramePing:
			if err := write(netgossip.Frame{Type: netgossip.FramePong, Token: f.Token}); err != nil {
				return
			}
		default:
			return
		}
	}
}

// streamOut forwards σ′ draws as StreamData frames, draining whatever is
// already buffered into each frame.
func streamOut(s *nodesampling.PoolSubscription, write func(netgossip.Frame) error) {
	buf := make([]uint64, 0, netgossip.MaxBatch)
	for {
		id, ok := <-s.C()
		if !ok {
			return
		}
		buf = append(buf[:0], uint64(id))
	fill:
		for len(buf) < cap(buf) {
			select {
			case more, ok := <-s.C():
				if !ok {
					break fill
				}
				buf = append(buf, uint64(more))
			default:
				break fill
			}
		}
		if err := write(netgossip.Frame{Type: netgossip.FrameStreamData, IDs: buf}); err != nil {
			s.Cancel()
			return
		}
	}
}
