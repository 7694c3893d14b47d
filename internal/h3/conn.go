package h3

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"quicspin/internal/transport"
)

// FirstStreamID is the first client-initiated bidirectional stream
// (RFC 9000 §2.1); subsequent requests use id+4.
const FirstStreamID = 0

// HeadRetention is how many leading bytes of a response stream a
// ClientConn retains while the header block is still open: one more than
// the longest unterminated header block the scanner's stream inspection
// (hostile.InspectStream) tolerates, so a header flood stays visible.
// Once the header block ends only the head is retained; body bytes are
// counted, not kept.
const HeadRetention = 16<<10 + 1

// ClientConn issues requests over one transport connection. It is
// poll-driven like the transport itself: queue a request with Do, pump the
// connection, then check Response.
type ClientConn struct {
	conn   *transport.Conn
	nextID uint64
}

// NewClientConn wraps an established (or connecting) client transport conn.
func NewClientConn(conn *transport.Conn) *ClientConn {
	return &ClientConn{conn: conn, nextID: FirstStreamID}
}

// Conn returns the underlying transport connection.
func (c *ClientConn) Conn() *transport.Conn { return c.conn }

// Do queues a request and returns its stream ID. The transport must be
// pumped (Poll/Receive/Advance) for the exchange to progress; the handshake
// need not be complete yet — data is buffered.
func (c *ClientConn) Do(req *Request) (uint64, error) {
	id := c.nextID
	c.nextID += 4
	if err := c.conn.SendStream(id, EncodeRequest(req), true); err != nil {
		return 0, fmt.Errorf("h3: queueing request: %w", err)
	}
	c.conn.LimitStreamRecv(id, HeadRetention)
	return id, nil
}

// Response returns the parsed response for a stream once it has fully
// arrived. done is false while the exchange is still in flight. The
// response's Body is empty: the client retains only the head and counts
// the body into BodyLen. Each call also drops the stream's retention to
// the head as soon as the header block has ended. A header block that
// does not end within HeadRetention bytes is malformed.
func (c *ClientConn) Response(id uint64) (*Response, bool, error) {
	data, complete := c.conn.StreamRecv(id)
	i := bytes.Index(data, []byte("\n\n"))
	if i >= 0 {
		c.conn.LimitStreamRecv(id, i+2)
		data = data[:i+2]
	}
	if !complete {
		return nil, false, nil
	}
	n := c.conn.StreamLen(id)
	if i < 0 && n > len(data) {
		return nil, true, fmt.Errorf("%w: header block not terminated within the %d bytes a client retains", ErrMalformed, HeadRetention)
	}
	resp, err := ParseResponseHead(data, n)
	if err != nil {
		return nil, true, err
	}
	return resp, true, nil
}

// Handler produces a response for a request. peer identifies the client.
// The response body is queued on the stream without copying, so the
// handler must not modify it afterwards.
type Handler func(peer string, req *Request) *Response

// Server serves HTTP/3-lite requests on every connection of a transport
// endpoint. Call Serve from the endpoint driver's activity hook.
type Server struct {
	Handler Handler
	served  Answered
}

// NewServer returns a Server with the given handler.
func NewServer(h Handler) *Server {
	return &Server{Handler: h}
}

// Serve answers all newly completed request streams on conn. Connections
// that have terminated are forgotten (see Answered), so a long-running
// server keeps no state for them.
func (s *Server) Serve(peer string, conn *transport.Conn, now time.Time) {
	if !conn.HandshakeComplete() || conn.Terminating() {
		return
	}
	for _, id := range conn.RecvStreamIDs() {
		data, complete := conn.StreamRecv(id)
		if !complete || !s.served.Mark(conn, id) {
			continue
		}
		req, err := ParseRequest(data)
		var resp *Response
		if err != nil {
			resp = &Response{Status: 400, Headers: map[string]string{}, Body: []byte(err.Error())}
		} else {
			resp = s.Handler(peer, req)
		}
		if resp == nil {
			resp = &Response{Status: 500, Headers: map[string]string{}}
		}
		_ = conn.SendStream(id, EncodeResponseHead(resp), false)
		_ = conn.SendStream(id, resp.Body, true)
	}
}

// Answered records which request streams a server has answered on each
// connection. A terminating connection is never served again, so Sweep
// forgets it. Mark also sweeps whenever the tracked connections have
// doubled since the last sweep, which keeps them within about twice the
// live ones at constant amortised cost, even for a caller that never
// sweeps. The zero value is ready to use.
type Answered struct {
	conns   map[*transport.Conn][]uint64
	sweepAt int
}

// minSweep is the fewest tracked connections at which Mark sweeps.
const minSweep = 8

// Mark records stream id of conn as answered. It reports false if the
// stream was already answered.
func (a *Answered) Mark(conn *transport.Conn, id uint64) bool {
	// A connection carries a handful of request streams: a list beats a
	// set.
	if slices.Contains(a.conns[conn], id) {
		return false
	}
	if a.conns == nil {
		a.conns = map[*transport.Conn][]uint64{}
	}
	if len(a.conns) >= max(a.sweepAt, minSweep) {
		a.Sweep()
	}
	a.conns[conn] = append(a.conns[conn], id)
	return true
}

// Sweep forgets every terminating connection.
func (a *Answered) Sweep() {
	for conn := range a.conns {
		if conn.Terminating() {
			delete(a.conns, conn)
		}
	}
	a.sweepAt = 2 * len(a.conns)
}

// Len returns how many connections are tracked.
func (a *Answered) Len() int { return len(a.conns) }
