package scanner

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"testing"
	"testing/fstest"

	"quicspin/internal/websim"
)

type closableBuffer struct{ bytes.Buffer }

func (c *closableBuffer) Close() error { return nil }

// memQlogs is an in-memory trace directory: file name → contents.
type memQlogs map[string]*closableBuffer

func (m memQlogs) create(name string) (io.WriteCloser, error) {
	if _, ok := m[name]; ok {
		return nil, fmt.Errorf("%s written twice", name)
	}
	b := &closableBuffer{}
	m[name] = b
	return b, nil
}

func (m memQlogs) names() []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (m memQlogs) fsys() fstest.MapFS {
	out := fstest.MapFS{}
	for name, b := range m {
		out[name] = &fstest.MapFile{Data: b.Bytes()}
	}
	return out
}

// writeResultQlogs writes every connection trace of a materialised Result,
// domain by domain in population order.
func writeResultQlogs(t *testing.T, res *Result) memQlogs {
	t.Helper()
	files := memQlogs{}
	for i := range res.Domains {
		if err := WriteDomainQlogs(&res.Domains[i], res.Week, res.IPv6, files.create); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestQlogRoundTrip(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 200_000
	w := websim.Generate(p)
	res := mustRun(t, w, Config{Week: 3, Engine: EngineFast, Seed: 4, Workers: 2})

	// Serialise everything, then reassemble and compare per-connection
	// fields.
	files := writeResultQlogs(t, res)
	if len(files) == 0 {
		t.Fatal("no qlog files written")
	}
	backs, err := MergeQlogConns(files.fsys(), files.names())
	if err != nil {
		t.Fatal(err)
	}
	if len(backs) != 1 {
		t.Fatalf("got %d weekly results, want 1", len(backs))
	}
	back := backs[0]
	if back.Week != 3 || back.IPv6 {
		t.Errorf("run metadata = week %d ipv6 %v", back.Week, back.IPv6)
	}
	// Same domains with same conn content (order of domains may differ;
	// index both by name).
	index := func(r *Result) map[string]*DomainResult {
		m := map[string]*DomainResult{}
		for i := range r.Domains {
			m[r.Domains[i].Domain] = &r.Domains[i]
		}
		return m
	}
	orig, got := index(res), index(back)
	// Only resolved domains have connections and thus qlog files.
	checked := 0
	for name, od := range orig {
		if len(od.Conns) == 0 {
			continue
		}
		gd, ok := got[name]
		if !ok {
			t.Fatalf("domain %s missing after round trip", name)
		}
		if len(gd.Conns) != len(od.Conns) {
			t.Fatalf("%s: conns %d != %d", name, len(gd.Conns), len(od.Conns))
		}
		for j := range od.Conns {
			oc, gc := od.Conns[j], gd.Conns[j]
			if oc.Target != gc.Target || oc.QUIC != gc.QUIC || oc.Status != gc.Status ||
				oc.Server != gc.Server || oc.Err != gc.Err || oc.Redirect != gc.Redirect ||
				oc.ZeroPkts != gc.ZeroPkts || oc.OnePkts != gc.OnePkts || oc.IP != gc.IP {
				t.Fatalf("%s conn %d differs:\n%+v\n%+v", name, j, oc, gc)
			}
			if len(oc.Observations) != len(gc.Observations) {
				t.Fatalf("%s conn %d: obs %d != %d", name, j, len(gc.Observations), len(oc.Observations))
			}
			for k := range oc.Observations {
				a, b := oc.Observations[k], gc.Observations[k]
				if a.PN != b.PN || a.Spin != b.Spin || a.VEC != b.VEC {
					t.Fatalf("%s conn %d obs %d: %+v != %+v", name, j, k, a, b)
				}
				// Timestamps survive within qlog's float-ms precision.
				if d := a.T.Sub(b.T); d > 1e4 || d < -1e4 {
					t.Fatalf("%s conn %d obs %d: time drift %v", name, j, k, d)
				}
			}
			if len(oc.StackRTTs) != len(gc.StackRTTs) {
				t.Fatalf("%s conn %d: stack samples %d != %d", name, j, len(gc.StackRTTs), len(oc.StackRTTs))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("round trip checked nothing")
	}
}

func TestReadConnQlogRejectsForeignTrace(t *testing.T) {
	src := `{"qlog_version":"0.4","vantage_point":"client","reference_time":"2023-05-15T00:00:00Z"}` + "\n"
	if _, _, _, _, err := ReadConnQlog(bytes.NewReader([]byte(src))); err == nil {
		t.Error("trace without scan common fields accepted")
	}
}

func TestQlogClassificationSurvives(t *testing.T) {
	// A flipping connection keeps enough data for spin-RTT analysis.
	p := websim.DefaultProfile()
	p.Scale = 100_000
	w := websim.Generate(p)
	res := mustRun(t, w, Config{Week: 12, Engine: EngineEmulated, Seed: 8, Workers: 2})
	var d *DomainResult
	var idx int
	for i := range res.Domains {
		for j := range res.Domains[i].Conns {
			if res.Domains[i].Conns[j].HasFlips() {
				d, idx = &res.Domains[i], j
			}
		}
	}
	if d == nil {
		t.Skip("no flipping connection in sample")
	}
	var buf bytes.Buffer
	if err := WriteConnQlog(&buf, d, idx, res.Week, false); err != nil {
		t.Fatal(err)
	}
	_, c, _, _, err := ReadConnQlog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasFlips() || len(c.Observations) < 2 {
		t.Errorf("flips lost in round trip: %+v", c)
	}
}

// TestQlogSinkMatchesMaterialisedRun pins the streaming qlog export: the
// traces QlogSink writes as RunStream delivers domains have the same names
// and bytes as the traces of a materialised Run of the same config. The
// emulated case runs one worker: each emulated worker's virtual clock
// carries over between the domains it scans, so trace timestamps (not the
// spin-RTT deltas) depend on which worker took a domain.
func TestQlogSinkMatchesMaterialisedRun(t *testing.T) {
	fastProf := websim.DefaultProfile()
	fastProf.Scale = 100_000
	fastWorld := websim.Generate(fastProf)
	emuProf := websim.DefaultProfile()
	emuProf.Scale = 200_000
	emuWorld := websim.Generate(emuProf)
	for _, tc := range []struct {
		name  string
		world *websim.World
		cfg   Config
	}{
		{"fast/workers=1", fastWorld, Config{Week: 12, Engine: EngineFast, Seed: 3, Workers: 1}},
		{"fast/workers=4", fastWorld, Config{Week: 12, Engine: EngineFast, Seed: 3, Workers: 4}},
		{"emulated/workers=1", emuWorld, Config{Week: 12, Engine: EngineEmulated, Seed: 3, Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := writeResultQlogs(t, mustRun(t, tc.world, tc.cfg))
			if len(want) == 0 {
				t.Fatal("scan wrote no traces")
			}
			got := memQlogs{}
			delivered := 0
			sink := QlogSink(tc.cfg.Week, tc.cfg.IPv6, got.create, func(int, *DomainResult) error {
				delivered++
				return nil
			})
			if err := RunStream(tc.world, tc.cfg, sink); err != nil {
				t.Fatal(err)
			}
			if delivered != tc.world.NumDomains() {
				t.Errorf("next sink saw %d domains, want %d", delivered, tc.world.NumDomains())
			}
			if len(got) != len(want) {
				t.Fatalf("sink wrote %d traces, materialised run %d", len(got), len(want))
			}
			for name, w := range want {
				g, ok := got[name]
				if !ok {
					t.Fatalf("sink did not write %s", name)
				}
				if !bytes.Equal(g.Bytes(), w.Bytes()) {
					t.Fatalf("%s differs between the sink and the materialised run", name)
				}
			}
		})
	}
}

// TestQlogSinkWriteErrorStopsScan checks that a failing trace write comes
// back from RunStream as the sink error, before the next sink sees the
// domain.
func TestQlogSinkWriteErrorStopsScan(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 200_000
	w := websim.Generate(p)
	errFull := fmt.Errorf("disk full")
	opened, folded := 0, 0
	sink := QlogSink(3, false, func(string) (io.WriteCloser, error) {
		if opened++; opened > 5 {
			return nil, errFull
		}
		return &closableBuffer{}, nil
	}, func(int, *DomainResult) error {
		folded++
		return nil
	})
	err := RunStream(w, Config{Week: 3, Engine: EngineFast, Seed: 4, Workers: 2}, sink)
	if err != errFull {
		t.Fatalf("RunStream = %v, want the write error", err)
	}
	if folded >= w.NumDomains() {
		t.Errorf("scan ran to completion (%d domains folded) after the write error", folded)
	}
}

// TestMergeQlogConnsOpensOneAtATime checks that merging a trace set never
// holds more than one trace open, and closes every trace it opens.
func TestMergeQlogConnsOpensOneAtATime(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 200_000
	w := websim.Generate(p)
	files := writeResultQlogs(t, mustRun(t, w, Config{Week: 3, Engine: EngineFast, Seed: 4, Workers: 2}))
	counted := &countingFS{FS: files.fsys()}
	backs, err := MergeQlogConns(counted, files.names())
	if err != nil {
		t.Fatal(err)
	}
	if len(backs) != 1 || len(backs[0].Domains) == 0 {
		t.Fatalf("merge returned %d weekly results", len(backs))
	}
	if counted.opened != len(files) {
		t.Errorf("opened %d traces, want %d", counted.opened, len(files))
	}
	if counted.maxOpen != 1 {
		t.Errorf("up to %d traces open at once, want 1", counted.maxOpen)
	}
	if counted.open != 0 {
		t.Errorf("%d traces left open", counted.open)
	}
}

// countingFS counts the files open at once.
type countingFS struct {
	fs.FS
	open, maxOpen, opened int
}

func (c *countingFS) Open(name string) (fs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	c.opened++
	if c.open++; c.open > c.maxOpen {
		c.maxOpen = c.open
	}
	return countedFile{f, &c.open}, nil
}

type countedFile struct {
	fs.File
	open *int
}

func (f countedFile) Close() error {
	*f.open--
	return f.File.Close()
}
