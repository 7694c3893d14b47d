package transport

import (
	"math"
	"slices"
	"sort"
)

// sendStream queues outgoing data for one stream as a gather list of
// borrowed slices (see Conn.SendStream for the borrowing contract).
type sendStream struct {
	bufs [][]byte // queued slices not yet fully packetised
	sent int      // bytes of bufs[0] already packetised
	end  uint64   // stream offset after the last queued byte
	next uint64   // next offset to transmit
	fin  bool     // the FIN is queued after the last byte
	// finSent tracks whether the FIN has been packetised at least once.
	finSent bool
}

// push queues data behind everything already queued, without copying.
func (s *sendStream) push(data []byte) {
	if len(data) == 0 {
		return
	}
	s.bufs = append(s.bufs, data)
	s.end += uint64(len(data))
}

// pending returns the next chunk to send (up to max bytes) and its offset,
// plus whether the chunk carries the FIN. ok is false when nothing remains.
// The chunk is a sub-slice of a queued slice; only a chunk spanning two
// queued slices is copied into a fresh buffer.
func (s *sendStream) pending(max int) (data []byte, offset uint64, fin, ok bool) {
	avail := s.end - s.next
	if avail == 0 {
		if s.fin && !s.finSent {
			s.finSent = true
			return nil, s.next, true, true
		}
		return nil, 0, false, false
	}
	n := max
	if avail < uint64(n) {
		n = int(avail)
	}
	if head := s.bufs[0][s.sent:]; n <= len(head) {
		data = head[:n:n]
		s.advance(n)
	} else {
		data = make([]byte, 0, n)
		for len(data) < n {
			head := s.bufs[0][s.sent:]
			k := min(n-len(data), len(head))
			data = append(data, head[:k]...)
			s.advance(k)
		}
	}
	offset = s.next
	s.next += uint64(n)
	fin = s.fin && s.next == s.end
	if fin {
		s.finSent = true
	}
	return data, offset, fin, true
}

// advance marks n bytes of bufs[0] packetised, releasing it once spent.
func (s *sendStream) advance(n int) {
	s.sent += n
	if s.sent == len(s.bufs[0]) {
		s.bufs[0] = nil
		s.bufs = s.bufs[1:]
		s.sent = 0
	}
}

// span is a received byte range [off, end) beyond the contiguous prefix.
// data holds its retained bytes, [off, min(end, limit)), and is nil when
// the whole range lies past the retention limit.
type span struct {
	off, end uint64
	data     []byte
}

// recvStream reassembles incoming stream data. Every byte is reassembled —
// it counts towards nextOff and completion — but only the bytes below the
// retention limit are stored.
type recvStream struct {
	delivered []byte // retained contiguous prefix: [0, min(nextOff, limit))
	nextOff   uint64 // offset after the contiguous prefix
	// spans are the ranges received beyond nextOff: sorted, disjoint and
	// never adjacent (touching ranges merge on insert).
	spans   []span
	limit   uint64 // retention limit, when limited
	limited bool   // the zero value retains everything
	finOff  uint64
	hasFin  bool
}

// keepEnd is the stream offset below which bytes are retained.
func (r *recvStream) keepEnd() uint64 {
	if r.limited {
		return r.limit
	}
	return math.MaxUint64
}

// setLimit lowers the retention limit to n bytes, discarding retained
// bytes past it. A limit never rises.
func (r *recvStream) setLimit(n uint64) {
	if r.limited && n >= r.limit {
		return
	}
	r.limit, r.limited = n, true
	if uint64(len(r.delivered)) > n {
		r.delivered = r.delivered[:n]
	}
	for i := range r.spans {
		sp := &r.spans[i]
		switch {
		case sp.off >= n:
			sp.data = nil
		case sp.off+uint64(len(sp.data)) > n:
			sp.data = sp.data[:n-sp.off]
		}
	}
}

// push inserts a received frame and advances the contiguous prefix.
func (r *recvStream) push(offset uint64, data []byte, fin bool) {
	end := offset + uint64(len(data))
	if fin {
		r.hasFin = true
		r.finOff = end
	}
	if len(data) == 0 || end <= r.nextOff {
		return // empty or fully duplicate
	}
	if offset > r.nextOff {
		r.insert(offset, end, data)
		return
	}
	r.extend(offset, end, data)
	n := 0
	for n < len(r.spans) && r.spans[n].off <= r.nextOff {
		if sp := r.spans[n]; sp.end > r.nextOff {
			r.extend(sp.off, sp.end, sp.data)
		}
		n++
	}
	r.spans = slices.Delete(r.spans, 0, n)
}

// extend advances the contiguous prefix to end with the range [off, end)
// (off <= nextOff < end), whose retained bytes start at data[0].
func (r *recvStream) extend(off, end uint64, data []byte) {
	if keep := r.keepEnd(); r.nextOff < keep {
		r.delivered = append(r.delivered, data[r.nextOff-off:min(end, keep)-off]...)
	}
	r.nextOff = end
}

// insert records the out-of-order range [off, end), merging it with every
// span it overlaps or touches. The frame's data is copied: it aliases a
// datagram buffer the caller reuses.
func (r *recvStream) insert(off, end uint64, data []byte) {
	i := sort.Search(len(r.spans), func(k int) bool { return r.spans[k].end >= off })
	j := i
	for j < len(r.spans) && r.spans[j].off <= end {
		j++
	}
	if j == i+1 && r.spans[i].off <= off && end <= r.spans[i].end {
		return // already held
	}
	m := span{off: off, end: end}
	if i < j {
		m.off = min(off, r.spans[i].off)
		m.end = max(end, r.spans[j-1].end)
	}
	if keep := r.keepEnd(); m.off < keep {
		n := int(min(m.end, keep) - m.off)
		var buf []byte
		if i < j && r.spans[i].off == m.off {
			// The first span's bytes already sit at the merged range's
			// start: grow it in place.
			buf = r.spans[i].data
		}
		buf = slices.Grow(buf, n-len(buf))[:n]
		for _, sp := range r.spans[i:j] {
			if len(sp.data) > 0 {
				copy(buf[sp.off-m.off:], sp.data)
			}
		}
		if off < keep {
			copy(buf[off-m.off:], data[:min(end, keep)-off])
		}
		m.data = buf
	}
	r.spans = slices.Replace(r.spans, i, j, m)
}

// complete reports whether all data up to the FIN has arrived.
func (r *recvStream) complete() bool {
	return r.hasFin && r.nextOff >= r.finOff && len(r.spans) == 0
}
