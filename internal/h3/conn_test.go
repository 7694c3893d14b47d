package h3_test

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"quicspin/internal/h3"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

var epoch = time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)

// pair wires a ClientConn and a Server over a lossless emulated path.
func pair(t *testing.T, handler h3.Handler) (*sim.Loop, *netem.ClientHost, *h3.ClientConn) {
	t.Helper()
	loop := sim.NewLoop(epoch)
	rng := rand.New(rand.NewSource(9))
	network := netem.New(loop, netem.PathConfig{Delay: 10 * time.Millisecond}, rng)
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng}
	})
	srv := h3.NewServer(handler)
	host := netem.NewServerHost(network, "server", ep)
	host.OnActivity = func(ep *transport.Endpoint, now time.Time) {
		for _, conn := range ep.Conns() {
			srv.Serve("client", conn, now)
		}
	}
	conn := transport.NewClientConn(transport.Config{Rng: rng}, loop.Now())
	client := netem.NewClientHost(network, "client", "server", conn)
	return loop, client, h3.NewClientConn(conn)
}

func TestClientConnSequentialRequests(t *testing.T) {
	loop, client, hc := pair(t, func(peer string, req *h3.Request) *h3.Response {
		return &h3.Response{
			Status:  200,
			Headers: map[string]string{"server": "t", "echo-path": req.Path, "echo-authority": req.Authority},
			Body:    []byte(req.Authority),
		}
	})
	ids := make([]uint64, 3)
	for i := range ids {
		id, err := hc.Do(&h3.Request{Method: "GET", Authority: "www.a.test", Path: "/p", Headers: map[string]string{}})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Stream IDs follow the client-bidi numbering.
	if ids[0] != 0 || ids[1] != 4 || ids[2] != 8 {
		t.Fatalf("stream ids = %v", ids)
	}
	client.Kick()
	loop.RunUntil(epoch.Add(10 * time.Second))
	for _, id := range ids {
		resp, done, err := hc.Response(id)
		if err != nil || !done {
			t.Fatalf("stream %d: (%v, %v)", id, done, err)
		}
		if resp.Status != 200 || resp.BodyLen != len("www.a.test") || resp.Headers["echo-path"] != "/p" || resp.Headers["echo-authority"] != "www.a.test" {
			t.Errorf("stream %d: %+v", id, resp)
		}
	}
	if hc.Conn() == nil {
		t.Error("Conn() nil")
	}
}

func TestResponseNotReadyBeforeArrival(t *testing.T) {
	_, _, hc := pair(t, func(string, *h3.Request) *h3.Response { return &h3.Response{Status: 200} })
	id, err := hc.Do(&h3.Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, _ := hc.Response(id); done {
		t.Error("response reported complete before any packet flowed")
	}
}

func TestServerAnswersMalformedRequestWith400(t *testing.T) {
	loop := sim.NewLoop(epoch)
	rng := rand.New(rand.NewSource(3))
	network := netem.New(loop, netem.PathConfig{Delay: 5 * time.Millisecond}, rng)
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng}
	})
	srv := h3.NewServer(func(string, *h3.Request) *h3.Response {
		t.Error("handler called for malformed request")
		return nil
	})
	host := netem.NewServerHost(network, "server", ep)
	host.OnActivity = func(ep *transport.Endpoint, now time.Time) {
		for _, conn := range ep.Conns() {
			srv.Serve("client", conn, now)
		}
	}
	conn := transport.NewClientConn(transport.Config{Rng: rng}, loop.Now())
	if err := conn.SendStream(0, []byte("NOT A REQUEST\n\n"), true); err != nil {
		t.Fatal(err)
	}
	client := netem.NewClientHost(network, "client", "server", conn)
	client.Kick()
	loop.RunUntil(epoch.Add(5 * time.Second))
	data, done := conn.StreamRecv(0)
	if !done {
		t.Fatal("no response to malformed request")
	}
	resp, err := h3.ParseResponseHead(data, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 400 {
		t.Errorf("status = %d, want 400", resp.Status)
	}
}

func TestNilHandlerResponseBecomes500(t *testing.T) {
	loop, client, hc := pair(t, func(string, *h3.Request) *h3.Response { return nil })
	id, err := hc.Do(&h3.Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	client.Kick()
	loop.RunUntil(epoch.Add(5 * time.Second))
	resp, done, err := hc.Response(id)
	if err != nil || !done {
		t.Fatalf("(%v, %v)", done, err)
	}
	if resp.Status != 500 {
		t.Errorf("status = %d, want 500", resp.Status)
	}
}

// TestServerForget checks the answered-stream bookkeeping a Server keeps
// per connection: a stream is answered once, Sweep forgets terminating
// connections, and a caller that never sweeps still tracks only about
// twice its live connections however many have come and gone.
func TestServerForget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	newConn := func() *transport.Conn { return transport.NewClientConn(transport.Config{Rng: rng}, epoch) }
	var a h3.Answered
	live := []*transport.Conn{newConn(), newConn()}
	for _, c := range live {
		if !a.Mark(c, 0) || !a.Mark(c, 4) || a.Mark(c, 0) {
			t.Fatal("Mark must report each stream answered exactly once")
		}
	}
	for i := 0; i < 1000; i++ {
		c := newConn()
		a.Mark(c, 0)
		c.Close(epoch, 0, "done")
		if a.Len() > 2*len(live)+8 {
			t.Fatalf("after %d closed connections, %d tracked for %d live", i+1, a.Len(), len(live))
		}
	}
	a.Sweep()
	if a.Len() != len(live) {
		t.Fatalf("after Sweep: %d tracked, want the %d live", a.Len(), len(live))
	}
	if a.Mark(live[0], 4) {
		t.Error("Sweep forgot the answered streams of a live connection")
	}
}

func TestDoAfterClose(t *testing.T) {
	_, _, hc := pair(t, func(string, *h3.Request) *h3.Response { return &h3.Response{Status: 200} })
	hc.Conn().Close(epoch, 0, "bye")
	if _, err := hc.Do(&h3.Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{}}); err == nil {
		t.Error("Do succeeded on closed connection")
	}
}

func TestClientConnRetainsOnlyHead(t *testing.T) {
	const bodyLen = 100_000
	loop, client, hc := pair(t, func(string, *h3.Request) *h3.Response {
		return &h3.Response{Status: 200, Headers: map[string]string{"server": "t"}, Body: make([]byte, bodyLen)}
	})
	id, err := hc.Do(&h3.Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	var resp *h3.Response
	client.OnActivity = func(*transport.Conn, time.Time) {
		if r, done, err := hc.Response(id); done && resp == nil {
			if err != nil {
				t.Fatalf("Response: %v", err)
			}
			resp = r
		}
	}
	client.Kick()
	loop.RunUntil(epoch.Add(10 * time.Second))
	if resp == nil || resp.Status != 200 || resp.BodyLen != bodyLen || len(resp.Body) != 0 {
		t.Fatalf("response = %+v", resp)
	}
	head := h3.EncodeResponseHead(&h3.Response{Status: 200, Headers: map[string]string{"server": "t"}, Body: make([]byte, bodyLen)})
	if data, _ := hc.Conn().StreamRecv(id); string(data) != string(head) {
		t.Errorf("client retained %d bytes, want the %d-byte head", len(data), len(head))
	}
	if n := hc.Conn().StreamLen(id); n != len(head)+bodyLen {
		t.Errorf("StreamLen = %d, want %d", n, len(head)+bodyLen)
	}
}

// TestClientConnHeadBound checks that a header block running past
// HeadRetention fails with an error naming the bound, not as a missing
// terminator, and that the client retained no more than the bound.
func TestClientConnHeadBound(t *testing.T) {
	long := strings.Repeat("h", h3.HeadRetention)
	loop, client, hc := pair(t, func(string, *h3.Request) *h3.Response {
		return &h3.Response{Status: 200, Headers: map[string]string{"x-long": long}}
	})
	id, err := hc.Do(&h3.Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	client.Kick()
	loop.RunUntil(epoch.Add(10 * time.Second))
	_, done, err := hc.Response(id)
	if !done || !errors.Is(err, h3.ErrMalformed) || !strings.Contains(err.Error(), strconv.Itoa(h3.HeadRetention)) {
		t.Fatalf("Response = (%v, %v), want ErrMalformed naming the %d-byte bound", done, err, h3.HeadRetention)
	}
	if data, _ := hc.Conn().StreamRecv(id); len(data) != h3.HeadRetention {
		t.Errorf("client retained %d bytes, want %d", len(data), h3.HeadRetention)
	}
}
