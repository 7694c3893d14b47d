package wire

import (
	"testing"
)

// Allocation regression gates for the encode/decode hot path. The scan
// pipeline parses and builds millions of packets per campaign; these
// functions must stay allocation-free so the emulated engine's per-packet
// budget (see internal/transport's alloc test) holds.

func TestAppendVarintZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	vals := []uint64{0, 63, 64, 16383, 16384, 1<<30 - 1, 1 << 30, 1<<62 - 1}
	n := testing.AllocsPerRun(1000, func() {
		b := buf[:0]
		for _, v := range vals {
			b = AppendVarint(b, v)
		}
	})
	if n != 0 {
		t.Errorf("AppendVarint allocates %.1f per run, want 0", n)
	}
}

func TestConsumeVarintZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, v := range []uint64{0, 63, 16383, 1 << 30, 1<<62 - 1} {
		buf = AppendVarint(buf, v)
	}
	n := testing.AllocsPerRun(1000, func() {
		rest := buf
		for len(rest) > 0 {
			_, consumed, err := ConsumeVarint(rest)
			if err != nil {
				t.Fatal(err)
			}
			rest = rest[consumed:]
		}
	})
	if n != 0 {
		t.Errorf("ConsumeVarint allocates %.1f per run, want 0", n)
	}
}

// buildShortPacket encodes a 1-RTT PING packet like the transport's
// encodeShort does.
func buildShortPacket(t *testing.T, dcid ConnectionID, pn uint64) []byte {
	t.Helper()
	hdr := &Header{DstConnID: dcid, PacketNumber: pn, SpinBit: pn%2 == 0}
	payload := PingFrame{}.Append(nil)
	pkt, err := AppendShortHeader(nil, hdr, payload, NoAckedPacket)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func TestParseShortHeaderIntoZeroAllocs(t *testing.T) {
	dcid := NewConnectionID([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	pkt := buildShortPacket(t, dcid, 41)
	var h Header
	n := testing.AllocsPerRun(1000, func() {
		if _, _, err := ParseHeaderInto(&h, pkt, dcid.Len(), NoAckedPacket); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("short-header ParseHeaderInto allocates %.1f per run, want 0", n)
	}
}

func TestFrameArenaSteadyStateZeroAllocs(t *testing.T) {
	// A payload mixing the frames the scan hot loop sees: ACK, STREAM,
	// PING, PADDING run.
	payload := (&AckFrame{Ranges: []AckRange{{Smallest: 0, Largest: 9}}, DelayMicros: 80}).Append(nil)
	payload = (&StreamFrame{StreamID: 0, Offset: 0, Data: []byte("hello world"), Fin: true}).Append(payload)
	payload = PingFrame{}.Append(payload)
	payload = PaddingFrame{N: 16}.Append(payload)

	var arena FrameArena
	if _, err := arena.Parse(payload); err != nil { // warm the arena
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1000, func() {
		if _, err := arena.Parse(payload); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("FrameArena.Parse allocates %.1f per run steady-state, want 0", n)
	}
}

func TestPaddingFrameAppendZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, 1500)
	n := testing.AllocsPerRun(1000, func() {
		b := append(buf[:0], FrameTypePing)
		_ = PaddingFrame{N: 1199}.Append(b)
	})
	if n != 0 {
		t.Errorf("PaddingFrame.Append allocates %.1f per run with capacity to spare, want 0", n)
	}
}
