// Command spinalyze consumes the qlog traces written by cmd/spinscan and
// regenerates the paper's tables and figures: the adoption overview
// (Tables 1/4), the AS-organisation attribution (Table 2, requires an
// asdb snapshot), the spin-configuration breakdown (Table 3), and the
// RTT-accuracy histograms (Figs. 3 and 4).
//
// Usage:
//
//	spinalyze -qlog-dir ./qlogs
//	spinalyze -qlog-dir ./qlogs -asdb ./asdb.txt -fig 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"

	"quicspin/internal/analysis"
	"quicspin/internal/asdb"
	"quicspin/internal/report"
	"quicspin/internal/scanner"
)

// errUsage reports bad arguments; run has already printed the problem and
// the usage text.
var errUsage = errors.New("invalid arguments")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// run parses args, folds every trace under -qlog-dir into the streaming
// campaign accumulators (the same folds spinscan renders its summary
// from) and writes the selected tables and figures to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("spinalyze", flag.ContinueOnError)
	flags.SetOutput(stderr)
	qlogDir := flags.String("qlog-dir", "", "directory with .qlog traces from spinscan (required)")
	asdbPath := flags.String("asdb", "", "asdb snapshot for Table 2 org attribution (optional)")
	table := flags.Int("table", 0, "render only this table (1-4; 0 = all)")
	fig := flags.Int("fig", 0, "render only this figure (3 or 4; 0 = all)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *qlogDir == "" {
		fmt.Fprintln(stderr, "-qlog-dir is required")
		flags.Usage()
		return errUsage
	}
	logf := log.New(stderr, "", log.LstdFlags).Printf

	show := func(n int) bool { return *table == 0 && *fig == 0 || *table == n }
	showFig := func(n int) bool { return *table == 0 && *fig == 0 || *fig == n }

	// Table 2 needs the snapshot's resolver while folding; without one the
	// org fold runs over an empty table and Table 2 is skipped.
	res := &asdb.Resolver{Table: asdb.NewTable(), Orgs: asdb.NewOrgDB()}
	withOrgs := show(2) && *asdbPath != ""
	if withOrgs {
		fh, err := os.Open(*asdbPath)
		if err != nil {
			return fmt.Errorf("open asdb: %w", err)
		}
		res.Table, res.Orgs, err = asdb.ReadSnapshot(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("parse asdb: %w", err)
		}
	} else if show(2) {
		logf("skipping Table 2: no -asdb snapshot given")
	}

	traces := os.DirFS(*qlogDir)
	files, err := fs.Glob(traces, "*.qlog")
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no .qlog files in %s (%v)", *qlogDir, err)
	}
	results, err := scanner.MergeQlogConns(traces, files)
	if err != nil {
		return fmt.Errorf("parsing qlogs: %w", err)
	}
	camp := analysis.NewCampaignAccumulator()
	for _, r := range results {
		logf("loaded week %d (ipv6=%v): %d domains", r.Week, r.IPv6, len(r.Domains))
		acc := camp.StartWeek(r.Week, r.IPv6, res)
		for i := range r.Domains {
			acc.Add(&r.Domains[i])
		}
	}
	wks := camp.Weeks()
	wk := wks[len(wks)-1]

	var tables []*report.Table
	if show(1) || show(4) {
		tables = append(tables, wk.RenderOverview())
	}
	if withOrgs {
		tables = append(tables, wk.RenderOrgTable(8))
	}
	if show(3) {
		tables = append(tables, wk.RenderSpinConfig(), wk.RenderSoftwareTable())
	}
	if len(wks) > 1 && (*table == 0 && *fig == 0 || *fig == 2) {
		tables = append(tables, analysis.RenderLongitudinal(camp.Longitudinal()))
	}
	for _, t := range tables {
		if err := t.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if showFig(3) {
		fmt.Fprint(stdout, camp.RenderAccuracy(3))
	}
	if showFig(4) {
		fmt.Fprint(stdout, camp.RenderAccuracy(4))
		fmt.Fprintln(stdout, headlineLine(camp.Headlines()))
	}
	return nil
}

// headlineLine formats the §5.2 headline shares as one summary line.
func headlineLine(h analysis.AccuracyHeadlines) string {
	return fmt.Sprintf("headlines: n=%d overestimate=%.1f%% within-25ms=%.1f%% >200ms=%.1f%% within-25%%=%.1f%% within-2x=%.1f%% >3x=%.1f%%",
		h.N, h.OverestimateShare*100, h.Within25ms*100, h.Over200ms*100,
		h.Within25pct*100, h.Within2x*100, h.Over3x*100)
}
