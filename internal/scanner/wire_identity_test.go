package scanner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"quicspin/internal/websim"
)

// wireDigest scans every domain of w in order on one emulated engine
// (workers 1) and hashes every datagram the network delivers — delivery
// instant, endpoints and bytes — followed by the network's final packet
// counters (sent, delivered, dropped, reordered, duplicated).
func wireDigest(w *websim.World, seed int64) (string, int) {
	cfg := Config{Week: 12, Engine: EngineEmulated, Seed: seed, Workers: 1}
	eng := newEmulatedEngine(w, cfg, newEngineRng(cfg, 0), newScanTelemetry(nil), nil)
	h := sha256.New()
	var stamp [8]byte
	eng.net.SetTap(func(now time.Time, from, to string, data []byte) {
		binary.BigEndian.PutUint64(stamp[:], uint64(now.UnixNano()))
		h.Write(stamp[:])
		fmt.Fprintf(h, "%s>%s:%d:", from, to, len(data))
		h.Write(data)
	})
	for _, d := range w.Domains {
		eng.scanDomain(d)
	}
	fmt.Fprintf(h, "%+v", eng.net.Stats())
	return hex.EncodeToString(h.Sum(nil)), len(w.Domains)
}

// TestEmulatedWireIdentity pins the emulated engine's wire traffic — every
// frame, packet size, packet count and timing — for a seeded scan of a few
// hundred domains, and for a larger world whose QUIC servers all misbehave
// (every hostile profile, midstream resets included, appears). How the
// engine holds response bytes in memory must not show here: any change to
// what goes on the wire, or when, changes the golden digests.
func TestEmulatedWireIdentity(t *testing.T) {
	hostileWorld := func() *websim.World {
		p := websim.DefaultProfile()
		p.Scale = 100_000
		p.HostileFrac = 1
		return websim.Generate(p)
	}
	cases := []struct {
		name  string
		world func() *websim.World
		seed  int64
		want  string
	}{
		{"honest", func() *websim.World { return testWorld(500_000) }, 1, "044d26dd13db606bb5e8666618b4669eab2109fa5b59d87010279aeb8364ad59"},
		{"hostile", hostileWorld, 7, "0b8d1299716a288bc082a3ba86d68fe2388da20fe3a5b0cdbd1cc00fa1e4fd72"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, n := wireDigest(c.world(), c.seed)
			if got != c.want {
				t.Errorf("wire digest over %d domains = %s, want %s", n, got, c.want)
			}
		})
	}
}
