package transport

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/wire"
)

// transferHead is how many leading response bytes the transfer's client
// retains, like an HTTP client that keeps only the response head.
const transferHead = 64

// transfer runs one lossless in-memory exchange between a fresh client and
// server connection: handshake, a small request, then body as the
// response. It returns the client connection once the whole response has
// arrived.
func transfer(tb testing.TB, body []byte) *Conn {
	tb.Helper()
	now := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	client := NewClientConn(Config{Rng: rand.New(rand.NewSource(7))}, now)
	if err := client.SendStream(0, []byte("GET /"), true); err != nil {
		tb.Fatal(err)
	}
	client.LimitStreamRecv(0, transferHead)
	var server *Conn
	served := false
	for round := 0; round < 100_000; round++ {
		if _, done := client.StreamRecv(0); done {
			return client
		}
		now = now.Add(time.Millisecond)
		client.Advance(now)
		for _, dg := range client.Poll(now) {
			if server == nil {
				var hdr wire.Header
				if _, _, err := wire.ParseHeaderInto(&hdr, dg, 0, wire.NoAckedPacket); err != nil {
					tb.Fatalf("parsing client initial: %v", err)
				}
				server = NewServerConn(Config{Rng: rand.New(rand.NewSource(99))}, hdr.DstConnID, hdr.SrcConnID, now)
			}
			if err := server.Receive(now, dg); err != nil {
				tb.Fatalf("server receive: %v", err)
			}
		}
		if server == nil {
			continue
		}
		server.Advance(now)
		if _, done := server.StreamRecv(0); done && !served {
			served = true
			if err := server.SendStream(0, body, true); err != nil {
				tb.Fatal(err)
			}
		}
		for _, dg := range server.Poll(now) {
			if err := client.Receive(now, dg); err != nil {
				tb.Fatalf("client receive: %v", err)
			}
		}
	}
	tb.Fatal("transfer did not complete")
	return nil
}

func TestStreamTransferCountsBody(t *testing.T) {
	body := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(body)
	client := transfer(t, body)
	data, done := client.StreamRecv(0)
	if !done || client.StreamLen(0) != len(body) || string(data) != string(body[:transferHead]) {
		t.Errorf("client kept %d bytes (done=%v) of a %d-byte stream, want the %d-byte head of %d",
			len(data), done, client.StreamLen(0), transferHead, len(body))
	}
}

// BenchmarkStreamTransfer moves a 16 KiB and a 256 KiB response body per
// op, handshake included. The sender queues the body without copying and
// the receiver counts it rather than storing it, so B/op grows with the
// body only through per-packet state (frames, ACK ranges, sent-packet
// records); scripts/bench.sh gates B/op(256 KiB) / B/op(16 KiB).
func BenchmarkStreamTransfer(b *testing.B) {
	for _, size := range []int{16 << 10, 256 << 10} {
		body := make([]byte, size)
		b.Run(fmt.Sprintf("body=%dKiB", size>>10), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				transfer(b, body)
			}
		})
	}
}
