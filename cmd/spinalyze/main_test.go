package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quicspin/internal/analysis"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// scanToQlogs scans a small world through the qlog sink spinscan -qlog-dir
// uses, into dir, folding the same deliveries into a campaign accumulator.
func scanToQlogs(t *testing.T, dir string) *analysis.CampaignAccumulator {
	t.Helper()
	p := websim.DefaultProfile()
	p.Scale = 50_000
	world := websim.Generate(p)
	cfg := scanner.Config{Week: 12, Engine: scanner.EngineFast, Seed: p.Seed + 12, Workers: 2}
	camp := analysis.NewCampaignAccumulator()
	create := func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name))
	}
	sink := scanner.QlogSink(cfg.Week, cfg.IPv6, create, camp.StartWeek(cfg.Week, cfg.IPv6, world.ASDB()).Sink())
	if err := scanner.RunStream(world, cfg, sink); err != nil {
		t.Fatal(err)
	}
	return camp
}

func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestRunMatchesScanAccumulator checks that folding the trace set back
// renders Table 3, the §4.2 webserver table and the Fig. 4 panels exactly
// as the accumulator fed during the scan renders them.
func TestRunMatchesScanAccumulator(t *testing.T) {
	dir := t.TempDir()
	camp := scanToQlogs(t, dir)
	wk := camp.Weeks()[0]

	want := wk.RenderSpinConfig().String() + "\n" + wk.RenderSoftwareTable().String() + "\n"
	if got := runArgs(t, "-qlog-dir", dir, "-table", "3"); got != want {
		t.Errorf("-table 3 differs from the scan's accumulator\n--- spinalyze ---\n%s--- scan ---\n%s", got, want)
	}

	h := camp.Headlines()
	if h.N == 0 {
		t.Fatal("scan produced no spin-RTT accuracy samples")
	}
	want = camp.RenderAccuracy(4) + headlineLine(h) + "\n"
	if got := runArgs(t, "-qlog-dir", dir, "-fig", "4"); got != want {
		t.Errorf("-fig 4 differs from the scan's accumulator\n--- spinalyze ---\n%s--- scan ---\n%s", got, want)
	}

	// Without -asdb the full report still renders, skipping Table 2.
	all := runArgs(t, "-qlog-dir", dir)
	for _, title := range []string{"Table 1.", "Table 3.", "Webserver attribution", "Figure 3", "Figure 4", "headlines:"} {
		if !strings.Contains(all, title) {
			t.Errorf("full report lacks %q", title)
		}
	}
	if strings.Contains(all, "Table 2.") {
		t.Error("Table 2 rendered without an -asdb snapshot")
	}
}

func TestRunRejectsMissingTraces(t *testing.T) {
	for name, args := range map[string][]string{
		"no -qlog-dir":    nil,
		"empty directory": {"-qlog-dir", t.TempDir()},
		"bad flag":        {"-qlog-dir", t.TempDir(), "-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%s: run succeeded", name)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote to stdout:\n%s", name, stdout.String())
		}
	}
}
