// Command spinprobe opens one QUIC-lite connection to a target, performs
// HTTP/3-lite requests, and reports the spin-bit RTT estimates next to the
// stack's own estimator — a single-target version of the paper's
// measurement (§3.3). Point it at cmd/spinserver.
//
// Usage:
//
//	spinprobe -target 127.0.0.1:4433 -requests 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/transport"
	"quicspin/internal/udprun"
)

func main() {
	target := flag.String("target", "127.0.0.1:4433", "UDP address of the QUIC-lite server")
	host := flag.String("host", "www.example.invalid", "authority to request")
	requests := flag.Int("requests", 3, "number of sequential requests")
	timeout := flag.Duration("timeout", 15*time.Second, "overall deadline")
	seed := flag.Int64("seed", time.Now().UnixNano(), "random seed")
	flag.Parse()

	// Fail fast on flag values the probe loop would otherwise misread.
	if *requests <= 0 {
		log.Fatalf("spinprobe: -requests must be > 0, got %d", *requests)
	}
	if *timeout <= 0 {
		log.Fatalf("spinprobe: -timeout must be > 0, got %v", *timeout)
	}

	raddr, err := net.ResolveUDPAddr("udp", *target)
	if err != nil {
		log.Fatalf("resolve: %v", err)
	}
	pc, err := net.ListenPacket("udp", ":0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer pc.Close()

	conn := transport.NewClientConn(transport.Config{
		Rng:         rand.New(rand.NewSource(*seed)),
		IdleTimeout: *timeout,
	}, time.Now())
	hc := h3.NewClientConn(conn)
	runner := udprun.NewConnRunner(conn, pc, raddr)

	pendingID := uint64(0)
	issued, finished := 0, 0
	issue := func(c *transport.Conn) {
		id, err := hc.Do(&h3.Request{
			Method: "GET", Authority: *host, Path: "/",
			Headers: map[string]string{"user-agent": "quicspin-probe/1.0"},
		})
		if err != nil {
			log.Fatalf("request: %v", err)
		}
		pendingID = id
		issued++
	}
	runner.OnActivity = func(c *transport.Conn, now time.Time) {
		if issued == 0 {
			issue(c)
			return
		}
		if finished == issued {
			return
		}
		if resp, complete, err := hc.Response(pendingID); complete {
			finished++
			if err != nil {
				log.Printf("request %d: bad response: %v", finished, err)
			} else {
				log.Printf("request %d: %d, %d bytes, server=%q", finished, resp.Status, resp.BodyLen, resp.Server())
			}
			if issued < *requests {
				issue(c)
			} else {
				c.Close(now, 0, "probe complete")
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := runner.Run(ctx); err != nil && ctx.Err() == nil {
		log.Fatalf("runner: %v", err)
	}

	report(conn)
}

func report(conn *transport.Conn) {
	obs := conn.Observations()
	fmt.Printf("\n=== spin bit report ===\n")
	fmt.Printf("received 1-RTT packets: %d\n", len(obs))
	fmt.Printf("classification:         %s\n", core.ClassifySeries(obs))
	est := conn.RTT()
	fmt.Printf("stack RTT:              smoothed=%v min=%v samples=%d\n",
		est.Smoothed(), est.Min(), len(est.Samples()))

	rtts := core.SpinRTTs(obs, false)
	if len(rtts) == 0 {
		fmt.Println("spin RTT:               no samples (need ≥ 2 spin edges)")
		return
	}
	var sum time.Duration
	for _, r := range rtts {
		sum += r
	}
	mean := sum / time.Duration(len(rtts))
	fmt.Printf("spin RTT:               mean=%v samples=%d\n", mean, len(rtts))
	for i, r := range rtts {
		fmt.Printf("  sample %2d: %v\n", i+1, r)
	}
	if est.Mean() > 0 {
		fmt.Printf("spin/stack ratio:       %.2f\n", float64(mean)/float64(est.Mean()))
	}
}
