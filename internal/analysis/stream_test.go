package analysis

import (
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// The golden-equivalence suite pins the streaming pipeline to the batch
// oracle: scanner.RunStream feeding an Accumulator must render every
// summary table byte-identically to RunBatch + Analyze + the batch
// renderers, for any worker count. RunBatch exists only to back these
// tests.

// renderBatchWeek renders one analysed week through the batch path, in
// spinscan's summary order.
func renderBatchWeek(world *websim.World, wk *Week) string {
	out := RenderOverview(wk).String()
	out += RenderOrgTable(wk, world.ASDB(), 8).String()
	out += RenderSpinConfig(wk).String()
	out += RenderSoftwareTable(wk, StandardViews()[1]).String()
	out += RenderErrorClasses(wk).String()
	out += RenderAccuracy([]*Week{wk}, 3)
	out += RenderAccuracy([]*Week{wk}, 4)
	return out
}

// renderStreamWeek renders the same tables from a streaming accumulator.
func renderStreamWeek(a *Accumulator) string {
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
	golden := renderBatchWeek(world, Analyze(r))
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
		if got := renderStreamWeek(acc); got != golden {
			t.Errorf("workers=%d: streaming rendering differs from batch oracle\n--- stream ---\n%.2000s\n--- batch ---\n%.2000s", workers, got, golden)
		}

		// The materialising Run wraps the same pipeline; its analysis must
		// agree too.
		rs, err := scanner.Run(world, cfg)
		if err != nil {
			t.Fatalf("Run workers=%d: %v", workers, err)
		}
		if got := renderBatchWeek(world, Analyze(rs)); got != golden {
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
	golden := renderBatchWeek(world, Analyze(r))

	acc := NewAccumulator(cfg.Week, cfg.IPv6, world.ASDB())
	if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if got := renderStreamWeek(acc); got != golden {
		t.Error("emulated streaming rendering differs from batch oracle")
	}
}

func TestCampaignAccumulatorMatchesBatch(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	p.Weeks = 4
	world := websim.Generate(p)

	camp := NewCampaignAccumulator()
	var weeks []*Week
	for wknum := 1; wknum <= p.Weeks; wknum++ {
		cfg := scanner.Config{Week: wknum, Engine: scanner.EngineFast, Seed: 99, Workers: 4}
		r, err := scanner.RunBatch(world, cfg)
		if err != nil {
			t.Fatalf("RunBatch week %d: %v", wknum, err)
		}
		weeks = append(weeks, Analyze(r))

		acc := camp.StartWeek(wknum, cfg.IPv6, world.ASDB())
		if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
			t.Fatalf("RunStream week %d: %v", wknum, err)
		}
	}

	gotLong := RenderLongitudinal(camp.Longitudinal()).String()
	wantLong := RenderLongitudinal(Longitudinally(weeks)).String()
	if gotLong != wantLong {
		t.Errorf("longitudinal mismatch\n--- stream ---\n%s--- batch ---\n%s", gotLong, wantLong)
	}
	for _, fig := range []int{3, 4} {
		if got, want := camp.RenderAccuracy(fig), RenderAccuracy(weeks, fig); got != want {
			t.Errorf("campaign accuracy fig %d mismatch", fig)
		}
	}
	if got, want := camp.Weeks()[len(camp.Weeks())-1].Headlines(), Headlines(weeks[len(weeks)-1:]); got != want {
		t.Errorf("weekly headlines mismatch: %+v vs %+v", got, want)
	}
}

// TestCampaignHeadlinesMatchBatch pins the campaign-level §5.2 headlines
// (merged weekly accuracy folds) to the batch Headlines over every week.
func TestCampaignHeadlinesMatchBatch(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	world := websim.Generate(p)

	camp := NewCampaignAccumulator()
	var weeks []*Week
	for _, wknum := range []int{11, 12} {
		cfg := scanner.Config{Week: wknum, Engine: scanner.EngineFast, Seed: 5, Workers: 4}
		r, err := scanner.RunBatch(world, cfg)
		if err != nil {
			t.Fatalf("RunBatch week %d: %v", wknum, err)
		}
		weeks = append(weeks, Analyze(r))
		if err := scanner.RunStream(world, cfg, camp.StartWeek(wknum, cfg.IPv6, world.ASDB()).Sink()); err != nil {
			t.Fatalf("RunStream week %d: %v", wknum, err)
		}
	}
	got, want := camp.Headlines(), Headlines(weeks)
	if got != want {
		t.Errorf("campaign headlines %+v, batch %+v", got, want)
	}
	if want.N <= camp.Weeks()[1].Headlines().N {
		t.Errorf("campaign headlines cover %d connections, no more than the last week's", want.N)
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
		renders = append(renders, renderStreamWeek(acc))
	}
	if renders[0] != renders[1] || renders[1] != renders[2] {
		t.Error("lazy-world streaming rendering varies with worker count")
	}
	if renders[0] == "" {
		t.Error("empty lazy-world rendering")
	}
}
