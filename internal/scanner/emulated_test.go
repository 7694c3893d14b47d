package scanner

import (
	"bytes"
	"testing"
)

// TestEmulatedServedConnsForgotten scans a couple of thousand domains on
// one engine and checks that the server sites forget every connection
// once it terminates: the tracked-connection count is back to zero after
// each domain instead of growing with the number of domains scanned.
func TestEmulatedServedConnsForgotten(t *testing.T) {
	w := testWorld(100_000)
	cfg := Config{Week: 12, Engine: EngineEmulated, Seed: 3, Workers: 1}
	eng := newEmulatedEngine(w, cfg, newEngineRng(cfg, 0), newScanTelemetry(nil), nil)
	quic := 0
	for _, d := range w.Domains {
		if res := eng.scanDomain(d); res.QUIC() {
			quic++
		}
		tracked := 0
		for _, s := range eng.servers {
			tracked += s.served.Len()
		}
		if tracked != 0 {
			t.Fatalf("after scanning %s: %d server connections still tracked", d.Name, tracked)
		}
	}
	if quic == 0 {
		t.Fatal("no domain completed a QUIC exchange; the check is vacuous")
	}
}

func TestLandingBody(t *testing.T) {
	for _, n := range []int{0, 1, 2000, 250_000, len(landingPattern()), len(landingPattern()) + 27} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte('a' + i%26)
		}
		got := landingBody(n)
		if !bytes.Equal(got, want) {
			t.Fatalf("landingBody(%d) is not the 'a'+i%%26 page", n)
		}
		if cap(got) != n {
			t.Errorf("landingBody(%d) exposes %d bytes of spare capacity", n, cap(got)-n)
		}
	}
}

func TestCutSplitsHeadAndBody(t *testing.T) {
	head, body := []byte("HEAD\n\n"), []byte("bodybytes")
	whole := append(append([]byte(nil), head...), body...)
	for lo := 0; lo <= len(whole); lo++ {
		for hi := lo; hi <= len(whole); hi++ {
			h, b := cut(head, body, lo, hi)
			if got := append(append([]byte(nil), h...), b...); !bytes.Equal(got, whole[lo:hi]) {
				t.Fatalf("cut(%d, %d) = %q + %q, want %q", lo, hi, h, b, whole[lo:hi])
			}
		}
	}
}
