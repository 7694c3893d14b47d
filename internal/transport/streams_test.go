package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSendStreamChunking(t *testing.T) {
	s := &sendStream{}
	s.push([]byte("hello world"))
	s.fin = true
	var got []byte
	var offs []uint64
	finSeen := false
	for {
		chunk, off, fin, ok := s.pending(4)
		if !ok {
			break
		}
		got = append(got, chunk...)
		offs = append(offs, off)
		if fin {
			finSeen = true
		}
	}
	if string(got) != "hello world" {
		t.Errorf("reassembled %q", got)
	}
	if !finSeen {
		t.Error("FIN never signalled")
	}
	if offs[0] != 0 || offs[1] != 4 || offs[2] != 8 {
		t.Errorf("offsets = %v", offs)
	}
	// FIN must be sent exactly once.
	if _, _, _, ok := s.pending(4); ok {
		t.Error("pending returned data after completion")
	}
}

func TestSendStreamEmptyFin(t *testing.T) {
	s := &sendStream{fin: true}
	chunk, off, fin, ok := s.pending(100)
	if !ok || !fin || len(chunk) != 0 || off != 0 {
		t.Errorf("empty-FIN pending = (%q, %d, %v, %v)", chunk, off, fin, ok)
	}
	if _, _, _, ok := s.pending(100); ok {
		t.Error("FIN offered twice")
	}
}

func TestRecvStreamInOrder(t *testing.T) {
	r := &recvStream{}
	r.push(0, []byte("abc"), false)
	r.push(3, []byte("def"), true)
	if string(r.delivered) != "abcdef" || !r.complete() {
		t.Errorf("delivered=%q complete=%v", r.delivered, r.complete())
	}
}

func TestRecvStreamOutOfOrder(t *testing.T) {
	r := &recvStream{}
	r.push(3, []byte("def"), true)
	if r.complete() || len(r.delivered) != 0 {
		t.Fatalf("premature delivery: %q", r.delivered)
	}
	r.push(0, []byte("abc"), false)
	if string(r.delivered) != "abcdef" || !r.complete() {
		t.Errorf("delivered=%q complete=%v", r.delivered, r.complete())
	}
}

func TestRecvStreamOverlapAndDuplicates(t *testing.T) {
	r := &recvStream{}
	r.push(0, []byte("abcd"), false)
	r.push(2, []byte("cdef"), false) // overlaps delivered prefix
	r.push(0, []byte("abcd"), false) // pure duplicate
	r.push(6, []byte("gh"), true)
	if string(r.delivered) != "abcdefgh" || !r.complete() {
		t.Errorf("delivered=%q complete=%v", r.delivered, r.complete())
	}
}

func TestRecvStreamQuickReassembly(t *testing.T) {
	// Property: any arrival order of a segmentation, with duplicates and
	// overlapping resends mixed in, reassembles the original byte string.
	// Under a retention limit — set before the first byte or lowered
	// midway — the stream retains exactly the first limit bytes, still
	// counts every byte, and completes exactly when the unlimited stream
	// does.
	f := func(seed int64, n, keepRaw, lowerAt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%64) + 1
		orig := make([]byte, size)
		for i := range orig {
			orig[i] = byte(i)
		}
		type seg struct {
			off  uint64
			data []byte
		}
		// A covering split into segments of 1–8 bytes, then duplicates of
		// some of them and overlapping resends at arbitrary offsets.
		var segs []seg
		for off := 0; off < size; {
			l := min(rng.Intn(8)+1, size-off)
			segs = append(segs, seg{uint64(off), orig[off : off+l]})
			off += l
		}
		for k := rng.Intn(len(segs) + 1); k > 0; k-- {
			segs = append(segs, segs[rng.Intn(len(segs))])
		}
		for k := rng.Intn(6); k > 0; k-- {
			off := rng.Intn(size)
			l := min(rng.Intn(12)+1, size-off)
			segs = append(segs, seg{uint64(off), orig[off : off+l]})
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

		keep := int(keepRaw) % (size + 8)
		all, kept := &recvStream{}, &recvStream{}
		limitAt := -1 // retention limit set before the first push
		if lowerAt%2 == 1 {
			limitAt = int(lowerAt) % len(segs)
		} else {
			kept.setLimit(uint64(keep))
		}
		for i, sg := range segs {
			if i == limitAt {
				kept.setLimit(uint64(keep))
			}
			fin := sg.off+uint64(len(sg.data)) == uint64(size)
			all.push(sg.off, sg.data, fin)
			kept.push(sg.off, sg.data, fin)
			if kept.complete() != all.complete() || kept.nextOff != all.nextOff {
				return false
			}
		}
		return all.complete() && bytes.Equal(all.delivered, orig) &&
			kept.complete() && kept.nextOff == uint64(size) &&
			bytes.Equal(kept.delivered, orig[:min(keep, size)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRecvStreamLimitCountsPastRetention(t *testing.T) {
	r := &recvStream{}
	r.setLimit(4)
	r.push(6, []byte("ghij"), true) // beyond the limit, out of order
	r.push(0, []byte("abcdef"), false)
	if string(r.delivered) != "abcd" || r.nextOff != 10 || !r.complete() {
		t.Errorf("delivered=%q nextOff=%d complete=%v", r.delivered, r.nextOff, r.complete())
	}
	r.setLimit(8) // a limit never rises
	if r.limit != 4 {
		t.Errorf("limit rose to %d", r.limit)
	}
	r.setLimit(2)
	if string(r.delivered) != "ab" {
		t.Errorf("lowered limit kept %q", r.delivered)
	}
}

// refSendStream is the contiguous-buffer send stream the gather list must
// be indistinguishable from: every queued byte appended to one slice.
type refSendStream struct {
	data      []byte
	next      int
	fin, sent bool
}

func (s *refSendStream) pending(max int) (data []byte, offset uint64, fin, ok bool) {
	avail := len(s.data) - s.next
	if avail == 0 {
		if s.fin && !s.sent {
			s.sent = true
			return nil, uint64(s.next), true, true
		}
		return nil, 0, false, false
	}
	n := min(avail, max)
	data, offset = s.data[s.next:s.next+n], uint64(s.next)
	s.next += n
	fin = s.fin && s.next == len(s.data)
	if fin {
		s.sent = true
	}
	return data, offset, fin, true
}

func TestSendStreamQuickGatherEqualsContiguous(t *testing.T) {
	// Property: any split of a payload into queued slices — queued up
	// front or interleaved with packetisation — under any sequence of
	// pending(max) calls yields the same (offset, bytes, fin) sequence as
	// the payload queued as one contiguous slice.
	f := func(seed int64, n uint16, interleave bool) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, int(n%3000))
		rng.Read(payload)
		var pieces [][]byte
		for off := 0; off < len(payload); {
			l := min(rng.Intn(700)+1, len(payload)-off)
			pieces = append(pieces, payload[off:off+l])
			off += l
		}
		gather, ref := &sendStream{}, &refSendStream{}
		queue := func(i int) {
			gather.push(pieces[i])
			ref.data = append(ref.data, pieces[i]...)
			if i == len(pieces)-1 {
				gather.fin, ref.fin = true, true
			}
		}
		if len(pieces) == 0 {
			gather.fin, ref.fin = true, true
		}
		queued := 0
		if !interleave {
			for ; queued < len(pieces); queued++ {
				queue(queued)
			}
		}
		for calls := 0; calls < 10000; calls++ {
			if interleave && queued < len(pieces) && rng.Intn(3) == 0 {
				queue(queued)
				queued++
			}
			max := rng.Intn(1300) + 1
			g, goff, gfin, gok := gather.pending(max)
			r, roff, rfin, rok := ref.pending(max)
			if gok != rok || goff != roff || gfin != rfin || !bytes.Equal(g, r) {
				return false
			}
			if !gok && queued == len(pieces) {
				return ref.sent
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSendStreamBorrowsQueuedSlice(t *testing.T) {
	// A chunk inside one queued slice aliases it (no copy); a chunk
	// spanning two is a fresh copy that leaves both untouched.
	a, b := []byte("hello "), []byte("world")
	s := &sendStream{}
	s.push(a)
	s.push(b)
	s.fin = true
	chunk, _, _, _ := s.pending(3)
	if &chunk[0] != &a[0] || cap(chunk) != 3 {
		t.Errorf("chunk within one slice was copied or exposes spare capacity")
	}
	chunk, off, fin, _ := s.pending(5)
	if string(chunk) != "lo wo" || off != 3 || fin {
		t.Errorf("spanning chunk = %q at %d fin=%v", chunk, off, fin)
	}
	if &chunk[0] == &a[3] || string(a) != "hello " || string(b) != "world" {
		t.Error("spanning chunk aliases or modified a queued slice")
	}
	chunk, off, fin, _ = s.pending(100)
	if string(chunk) != "rld" || off != 8 || !fin || &chunk[0] != &b[2] {
		t.Errorf("tail chunk = %q at %d fin=%v", chunk, off, fin)
	}
}
