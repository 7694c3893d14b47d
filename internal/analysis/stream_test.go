package analysis

import (
	"testing"

	"quicspin/internal/asdb"
	"quicspin/internal/scanner"
	"quicspin/internal/stats"
	"quicspin/internal/websim"
)

// The golden-equivalence suite pins the streaming pipeline to the scanner
// oracle: scanner.RunStream feeding an Accumulator must render every
// summary table byte-identically to RunBatch's materialised Result folded
// into an Accumulator with Add, for any worker count. RunBatch exists only
// to back these tests. TestAccuracyPanelsMatchDirectRecount checks the
// Fig. 3/4 folds themselves against an independent per-panel recount.

// foldInto folds every domain of a materialised scan result into a.
func foldInto(a *Accumulator, r *scanner.Result) *Accumulator {
	for i := range r.Domains {
		a.Add(&r.Domains[i])
	}
	return a
}

// foldResult folds a materialised scan result into a fresh Accumulator.
func foldResult(r *scanner.Result, res *asdb.Resolver) *Accumulator {
	return foldInto(NewAccumulator(r.Week, r.IPv6, res), r)
}

// renderWeek renders one week's tables from an accumulator, in spinscan's
// summary order.
func renderWeek(a *Accumulator) string {
	out := a.RenderOverview().String()
	out += a.RenderOrgTable(8).String()
	out += a.RenderSpinConfig().String()
	out += a.RenderSoftwareTable().String()
	out += a.RenderErrorClasses().String()
	out += a.RenderAccuracy(3)
	out += a.RenderAccuracy(4)
	return out
}

func TestStreamingMatchesBatchOracle(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 2000
	world := websim.Generate(p)
	cfg := scanner.Config{Week: 5, Engine: scanner.EngineFast, Seed: 42, Workers: 4}

	r, err := scanner.RunBatch(world, cfg)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	golden := renderWeek(foldResult(r, world.ASDB()))
	if golden == "" {
		t.Fatal("empty golden rendering")
	}

	for _, workers := range []int{1, 4, 16} {
		cfg := cfg
		cfg.Workers = workers
		acc := NewAccumulator(cfg.Week, cfg.IPv6, world.ASDB())
		if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
			t.Fatalf("RunStream workers=%d: %v", workers, err)
		}
		if got := renderWeek(acc); got != golden {
			t.Errorf("workers=%d: streaming rendering differs from batch oracle\n--- stream ---\n%.2000s\n--- batch ---\n%.2000s", workers, got, golden)
		}

		// The materialising Run wraps the same pipeline; its analysis must
		// agree too.
		rs, err := scanner.Run(world, cfg)
		if err != nil {
			t.Fatalf("Run workers=%d: %v", workers, err)
		}
		if got := renderWeek(foldResult(rs, world.ASDB())); got != golden {
			t.Errorf("workers=%d: materialised streaming Run differs from batch oracle", workers)
		}
	}
}

func TestStreamingMatchesBatchOracleEmulated(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	world := websim.Generate(p)
	cfg := scanner.Config{Week: 2, Engine: scanner.EngineEmulated, Seed: 7, Workers: 8}

	r, err := scanner.RunBatch(world, cfg)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	golden := renderWeek(foldResult(r, world.ASDB()))

	acc := NewAccumulator(cfg.Week, cfg.IPv6, world.ASDB())
	if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if got := renderWeek(acc); got != golden {
		t.Error("emulated streaming rendering differs from batch oracle")
	}
}

func TestCampaignAccumulatorMatchesBatch(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	p.Weeks = 4
	world := websim.Generate(p)

	camp, batch := NewCampaignAccumulator(), NewCampaignAccumulator()
	for wknum := 1; wknum <= p.Weeks; wknum++ {
		cfg := scanner.Config{Week: wknum, Engine: scanner.EngineFast, Seed: 99, Workers: 4}
		r, err := scanner.RunBatch(world, cfg)
		if err != nil {
			t.Fatalf("RunBatch week %d: %v", wknum, err)
		}
		foldInto(batch.StartWeek(r.Week, r.IPv6, world.ASDB()), r)

		acc := camp.StartWeek(wknum, cfg.IPv6, world.ASDB())
		if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
			t.Fatalf("RunStream week %d: %v", wknum, err)
		}
	}

	gotLong := RenderLongitudinal(camp.Longitudinal()).String()
	wantLong := RenderLongitudinal(batch.Longitudinal()).String()
	if gotLong != wantLong {
		t.Errorf("longitudinal mismatch\n--- stream ---\n%s--- batch ---\n%s", gotLong, wantLong)
	}
	for _, fig := range []int{3, 4} {
		if got, want := camp.RenderAccuracy(fig), batch.RenderAccuracy(fig); got != want {
			t.Errorf("campaign accuracy fig %d mismatch", fig)
		}
	}
	last := len(camp.Weeks()) - 1
	if got, want := camp.Weeks()[last].Headlines(), batch.Weeks()[last].Headlines(); got != want {
		t.Errorf("weekly headlines mismatch: %+v vs %+v", got, want)
	}
}

// TestCampaignHeadlinesMatchBatch pins the campaign-level §5.2 headlines
// (merged weekly accuracy folds) of a streamed campaign to those of the
// RunBatch weeks folded with Add.
func TestCampaignHeadlinesMatchBatch(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	world := websim.Generate(p)

	camp, batch := NewCampaignAccumulator(), NewCampaignAccumulator()
	for _, wknum := range []int{11, 12} {
		cfg := scanner.Config{Week: wknum, Engine: scanner.EngineFast, Seed: 5, Workers: 4}
		r, err := scanner.RunBatch(world, cfg)
		if err != nil {
			t.Fatalf("RunBatch week %d: %v", wknum, err)
		}
		foldInto(batch.StartWeek(r.Week, r.IPv6, world.ASDB()), r)
		if err := scanner.RunStream(world, cfg, camp.StartWeek(wknum, cfg.IPv6, world.ASDB()).Sink()); err != nil {
			t.Fatalf("RunStream week %d: %v", wknum, err)
		}
	}
	got, want := camp.Headlines(), batch.Headlines()
	if got != want {
		t.Errorf("campaign headlines %+v, batch %+v", got, want)
	}
	if want.N <= camp.Weeks()[1].Headlines().N {
		t.Errorf("campaign headlines cover %d connections, no more than the last week's", want.N)
	}
}

// TestAccuracyPanelsMatchDirectRecount recomputes each Fig. 3/4 panel by
// its own loop over RunBatch output — AnalyzeConn per connection, filtered
// by class and filled straight into a histogram — so the accuracy fold's
// set selection and binning are checked against code that does not share
// them.
func TestAccuracyPanelsMatchDirectRecount(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	world := websim.Generate(p)
	r, err := scanner.RunBatch(world, scanner.Config{Week: 12, Engine: scanner.EngineFast, Seed: 99, Workers: 4})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	panels := [4]struct {
		class  Class
		sorted bool
	}{{ClassSpin, false}, {ClassSpin, true}, {ClassGrease, false}, {ClassGrease, true}}
	var abs, ratio [4]*stats.Histogram
	for i := range panels {
		abs[i] = stats.NewHistogram(Fig3Edges)
		ratio[i] = stats.NewHistogram(Fig4Edges)
	}
	for i := range r.Domains {
		for j := range r.Domains[i].Conns {
			c := AnalyzeConn(&r.Domains[i].Conns[j])
			if !c.HasAccuracy {
				continue
			}
			for k, pn := range panels {
				if c.Class != pn.class {
					continue
				}
				if pn.sorted {
					abs[k].Add(float64(c.AbsS) / 1e6)
					ratio[k].Add(c.RatioS)
				} else {
					abs[k].Add(float64(c.AbsR) / 1e6)
					ratio[k].Add(c.RatioR)
				}
			}
		}
	}
	if abs[0].N == 0 || abs[2].N == 0 {
		t.Fatalf("vacuous recount: %d Spin and %d Grease accuracy connections", abs[0].N, abs[2].N)
	}
	acc := foldResult(r, world.ASDB())
	if got, want := acc.RenderAccuracy(3), renderAccuracyFrom(3, func(i int) *stats.Histogram { return abs[i] }); got != want {
		t.Errorf("Fig. 3 panels differ from direct recount\n--- fold ---\n%s--- recount ---\n%s", got, want)
	}
	if got, want := acc.RenderAccuracy(4), renderAccuracyFrom(4, func(i int) *stats.Histogram { return ratio[i] }); got != want {
		t.Errorf("Fig. 4 panels differ from direct recount\n--- fold ---\n%s--- recount ---\n%s", got, want)
	}
}

func TestStreamingLazyWorldDeterminism(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	world := websim.GenerateLazy(p)

	var renders []string
	for _, workers := range []int{1, 4, 16} {
		cfg := scanner.Config{Week: 3, Engine: scanner.EngineFast, Seed: 11, Workers: workers}
		acc := NewAccumulator(cfg.Week, cfg.IPv6, world.ASDB())
		if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
			t.Fatalf("RunStream workers=%d: %v", workers, err)
		}
		renders = append(renders, renderWeek(acc))
	}
	if renders[0] != renders[1] || renders[1] != renders[2] {
		t.Error("lazy-world streaming rendering varies with worker count")
	}
	if renders[0] == "" {
		t.Error("empty lazy-world rendering")
	}
}
