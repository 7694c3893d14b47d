package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/campaign"
	"quicspin/internal/report"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// sizes fixes every workload's input size. benchSizes is the benchmark;
// the smoke tests run a tiny copy.
type sizes struct {
	// emulatedScale and fastScale are websim population divisors (see
	// websim.Profile.Scale): 1000 gives ~219k domains.
	emulatedScale int
	fastScale     int
	// weeks is the campaign length of fast-weeks and follow-journal.
	weeks int
	// setupReps and captureReps are how often the scans' world generation
	// and spinwatch-ingest's trace capture run; setup_s is the median.
	setupReps, captureReps int
	// The spinwatch-ingest trace: concurrent emulated clients and servers,
	// captured datagrams, and the flow table's slot count.
	ingestClients, ingestServers, traceDatagrams, tableSlots int
}

var benchSizes = sizes{
	emulatedScale: 20000,
	fastScale:     13000,
	weeks:         6,
	setupReps:     25,
	captureReps:   3,
	ingestClients: 256, ingestServers: 24, traceDatagrams: 80000, tableSlots: 4096,
}

// emulatedWeek is the week the emulated-week workload scans: the
// campaign's last, where the paper reports Tables 1, 3 and 5.
const emulatedWeek = 12

// scanUnit is the outcome of one repetition of a scan workload.
type scanUnit struct {
	domains   int64 // domains scheduled
	delivered int64
	bad       int64 // delivered out of order, twice, or ending panic:/stall:
	digest    string
	reg       *telemetry.Registry
	weekTimes []float64 // follow-journal: wall seconds per week
	journal   journalUsage
}

type journalUsage struct{ bytes, segments int64 }

// scanEnv is what a unit needs besides the world.
type scanEnv struct {
	opts  options
	world *websim.World
	spans *spanLog
	// n numbers units, for per-unit journal directories.
	n int
}

type scanWorkload struct {
	scale int
	// unit runs one repetition under the span parent.
	unit func(env *scanEnv, parent int) (scanUnit, error)
	// reference runs once before timing: it warms caches and returns the
	// digest every measured unit must reproduce.
	reference func(env *scanEnv, parent int) (scanUnit, error)
	// digestCheck names the check that every unit's digest equals the
	// reference's.
	digestCheck string
	// verify adds workload-specific checks of the last unit.
	verify func(env *scanEnv, res *result, u scanUnit)
}

func runEmulatedWeek(opts options) (*result, error) {
	return runScan(opts, scanWorkload{
		scale: opts.size.emulatedScale, unit: emulatedUnit, reference: emulatedUnit,
		digestCheck: "tables-digest-repeats",
	})
}

func runFastWeeks(opts options) (*result, error) {
	return runScan(opts, scanWorkload{
		scale: opts.size.fastScale, unit: fastUnit, reference: fastUnit,
		digestCheck: "tables-digest-repeats",
	})
}

// runFollowJournal measures campaign.Follow; its reference is the one-shot
// fast-weeks campaign, so the digest check is follow == one-shot.
func runFollowJournal(opts options) (*result, error) {
	return runScan(opts, scanWorkload{
		scale: opts.size.fastScale, unit: followUnit, reference: fastUnit,
		digestCheck: "follow-equals-one-shot", verify: verifyFollow,
	})
}

func scanConfig(engine scanner.Engine, week int, seed int64, reg *telemetry.Registry) scanner.Config {
	return scanner.Config{
		Week: week, Engine: engine, Seed: seed + int64(week),
		Workers: scanWorkers(), Telemetry: reg,
	}
}

// emulatedUnit scans one IPv4 week on the packet-level engine into an
// accumulator and renders Tables 1, 3, 5 and Figs. 3-4.
func emulatedUnit(env *scanEnv, parent int) (scanUnit, error) {
	w := env.world
	reg := telemetry.New()
	u := scanUnit{domains: int64(w.NumDomains()), reg: reg}
	acc := analysis.NewAccumulator(emulatedWeek, false, w.ASDB())
	cfg := scanConfig(scanner.EngineEmulated, emulatedWeek, env.opts.seed, reg)
	if err := streamWeek(env, parent, &u, cfg, acc.Sink()); err != nil {
		return u, err
	}
	sp := env.spans.begin("analysis.render", parent)
	u.digest = digest([]*report.Table{acc.RenderOverview(), acc.RenderSpinConfig(), acc.RenderErrorClasses()},
		acc.RenderAccuracy(3)+acc.RenderAccuracy(4))
	env.spans.end(sp)
	return u, nil
}

// fastUnit runs the multi-week one-shot campaign the way spinscan -engine
// fast -weeks N does, then renders the last week's tables, Fig. 2 and the
// campaign's Fig. 4.
func fastUnit(env *scanEnv, parent int) (scanUnit, error) {
	w := env.world
	reg := telemetry.New()
	u := scanUnit{domains: int64(w.NumDomains()) * int64(env.opts.size.weeks), reg: reg}
	camp := analysis.NewCampaignAccumulator()
	for wk := 1; wk <= env.opts.size.weeks; wk++ {
		acc := camp.StartWeek(wk, false, w.ASDB())
		cfg := scanConfig(scanner.EngineFast, wk, env.opts.seed, reg)
		if err := streamWeek(env, parent, &u, cfg, acc.Sink()); err != nil {
			return u, err
		}
	}
	sp := env.spans.begin("analysis.render", parent)
	u.digest = campaignDigest(camp)
	env.spans.end(sp)
	return u, nil
}

// followUnit runs the same campaign through the follow scheduler with a
// fresh checkpoint journal that every week shares.
func followUnit(env *scanEnv, parent int) (scanUnit, error) {
	w := env.world
	weeks := env.opts.size.weeks
	reg := telemetry.New()
	u := scanUnit{domains: int64(w.NumDomains()) * int64(weeks), reg: reg}
	env.n++
	dir := filepath.Join(env.opts.outDir, fmt.Sprintf("journal-%d-%d", os.Getpid(), env.n))
	if err := os.RemoveAll(dir); err != nil {
		return u, fmt.Errorf("clearing journal: %w", err)
	}
	defer os.RemoveAll(dir)

	base := scanConfig(scanner.EngineFast, 1, 0, reg)
	base.Checkpoint = dir
	var weekStart time.Time
	weekSpan := 0
	followSpan := env.spans.begin("campaign.follow", parent)
	fres, err := campaign.Follow(campaign.Config{
		World: w, Base: base, SeedBase: env.opts.seed, StartWeek: 1, MaxWeeks: weeks,
		// Follow calls Reconfigure just before each week's scan and OnWeek
		// once the week has merged, so the two bound the week.
		Reconfigure: func(*scanner.Config) {
			weekStart = time.Now()
			weekSpan = env.spans.begin("scanner.run_stream", followSpan)
		},
		OnWeek: func(int, *analysis.CampaignAccumulator) {
			env.spans.end(weekSpan)
			u.weekTimes = append(u.weekTimes, elapsed(weekStart))
		},
	})
	env.spans.end(followSpan)
	if err != nil {
		return u, err
	}
	if fres.WeeksDone != weeks || fres.Interrupted {
		return u, fmt.Errorf("follow finished %d of %d weeks (interrupted=%v)", fres.WeeksDone, weeks, fres.Interrupted)
	}
	// Follow delivers through its own sink, so delivery is counted by the
	// scanner's telemetry; a domain ending panic: or stall: shows in the
	// error classes.
	u.delivered = reg.Counter("spinscan_domains_total").Value()
	u.bad = reg.Counter(telemetry.Name("spinscan_conn_errors_total", "class", "panic")).Value() +
		reg.Counter(telemetry.Name("spinscan_conn_errors_total", "class", "stall")).Value()
	if u.journal, err = journalSize(dir); err != nil {
		return u, err
	}
	sp := env.spans.begin("analysis.render", parent)
	u.digest = campaignDigest(fres.Campaign)
	env.spans.end(sp)
	return u, nil
}

func verifyFollow(env *scanEnv, res *result, u scanUnit) {
	resumed := u.reg.Counter("domains_resumed_total").Value()
	ckErr := u.reg.Counter("checkpoint_errors_total").Value()
	check(env.opts, res, "follow-journal-clean", resumed == 0 && ckErr == 0,
		"%d domains resumed, %d checkpoint errors", resumed, ckErr)
	check(env.opts, res, "follow-journal-written", u.journal.bytes > 0 && u.journal.segments > 0,
		"%d bytes in %d segments", u.journal.bytes, u.journal.segments)
}

// streamWeek runs one RunStream into sink, checking that every population
// index arrives exactly once and in canonical order and that no domain
// ended in a worker panic or a watchdog stall. Traced, the sink calls are
// aggregated into one analysis.add span under the scan's span.
func streamWeek(env *scanEnv, parent int, u *scanUnit, cfg scanner.Config, sink func(int, *scanner.DomainResult) error) error {
	next := 0
	deliver := func(i int, d *scanner.DomainResult) {
		if i != next {
			u.bad++
		}
		next = i + 1
		u.delivered++
		for j := range d.Conns {
			if e := d.Conns[j].Err; strings.HasPrefix(e, "panic:") || strings.HasPrefix(e, "stall:") {
				u.bad++
				break
			}
		}
	}
	sp := env.spans.begin("scanner.run_stream", parent)
	add := env.spans.aggregate("analysis.add", sp)
	var err error
	if add == nil {
		err = scanner.RunStream(env.world, cfg, func(i int, d *scanner.DomainResult) error {
			deliver(i, d)
			return sink(i, d)
		})
	} else {
		err = scanner.RunStream(env.world, cfg, func(i int, d *scanner.DomainResult) error {
			deliver(i, d)
			start := time.Now()
			serr := sink(i, d)
			add.add(start, time.Now())
			return serr
		})
	}
	add.flush()
	env.spans.end(sp)
	if err != nil {
		return err
	}
	if next != env.world.NumDomains() {
		u.bad += int64(env.world.NumDomains() - next)
	}
	return nil
}

// campaignDigest renders what spinscan prints for a multi-week campaign:
// the last week's tables, Fig. 2 and the campaign's Fig. 4.
func campaignDigest(camp *analysis.CampaignAccumulator) string {
	wks := camp.Weeks()
	a := wks[len(wks)-1]
	return digest([]*report.Table{
		a.RenderOverview(), a.RenderOrgTable(8), a.RenderSpinConfig(),
		a.RenderSoftwareTable(), a.RenderErrorClasses(),
		analysis.RenderLongitudinal(camp.Longitudinal()),
	}, camp.RenderAccuracy(4))
}

// digest is the SHA-256 of the rendered tables and figures.
func digest(tables []*report.Table, figures string) string {
	h := sha256.New()
	for _, t := range tables {
		// A hash.Hash never returns a write error.
		_ = t.Render(h)
	}
	io.WriteString(h, figures)
	return hex.EncodeToString(h.Sum(nil))
}

func journalSize(dir string) (journalUsage, error) {
	var u journalUsage
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		u.bytes += info.Size()
		if strings.HasSuffix(path, ".jsonl") {
			u.segments++
		}
		return nil
	})
	if err != nil {
		return u, fmt.Errorf("sizing journal: %w", err)
	}
	return u, nil
}

// scanStats accumulates the measured units of one phase.
type scanStats struct {
	units           int
	domains, failed int64
	wall            float64
	rt              rtSample
	peakObjs        uint64
	rates           []float64 // domains per second of each unit
	livePeaks       []float64 // peak live-heap bytes of each unit
	digests         map[string]int
	last            scanUnit
}

// measureScan repeats the workload's unit until seconds have elapsed (at
// least once), with the heap sampler running.
func measureScan(env *scanEnv, wl scanWorkload, seconds float64) (scanStats, error) {
	st := scanStats{digests: map[string]int{}}
	heap := startHeapSampler()
	heap.Peak()
	rt0 := readRuntime()
	start := time.Now()
	var err error
	for st.units == 0 || elapsed(start) < seconds {
		unitStart := time.Now()
		root := env.spans.begin("bench.unit", 0)
		var u scanUnit
		u, err = wl.unit(env, root)
		env.spans.end(root)
		if err != nil {
			break
		}
		st.rates = append(st.rates, float64(u.domains)/elapsed(unitStart))
		objs, live := heap.Peak()
		st.peakObjs = max(st.peakObjs, objs)
		st.livePeaks = append(st.livePeaks, float64(live))
		st.units++
		st.domains += u.domains
		st.failed += (u.domains - u.delivered) + u.bad
		st.digests[u.digest]++
		st.last = u
	}
	st.wall = elapsed(start)
	st.rt = readRuntime().sub(rt0)
	heap.Stop()
	return st, err
}

func runScan(opts options, wl scanWorkload) (*result, error) {
	env := &scanEnv{opts: opts}
	if opts.trace {
		env.spans = newSpanLog()
	}
	profile := websim.DefaultProfile()
	profile.Scale = wl.scale
	profile.Seed = opts.seed
	var setup []float64
	for i := 0; i < opts.size.setupReps; i++ {
		env.world = nil
		runtime.GC() // every repetition starts from the same heap
		sp := env.spans.begin("websim.generate", 0)
		t := time.Now()
		env.world = websim.Generate(profile)
		setup = append(setup, elapsed(t))
		env.spans.end(sp)
	}
	fmt.Fprintf(opts.log, "setup: %d domains, world generation %v s (median of %d)\n",
		env.world.NumDomains(), median(setup), len(setup))

	ref, err := wl.reference(env, 0)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	fmt.Fprintf(opts.log, "reference digest %s\n", ref.digest)
	runtime.GC() // measure from a heap without set-up garbage

	res := &result{Correct: true}
	if !opts.trace {
		st, err := measureScan(env, wl, opts.seconds)
		if err != nil {
			return nil, err
		}
		scanChecks(env, wl, res, ref, st)
		setMetrics(res, endToEnd, map[string]float64{
			"setup_s":            median(setup),
			"ops_per_sec":        median(st.rates),
			"alloc_bytes_per_op": float64(st.rt.allocBytes) / float64(st.domains),
			"allocs_per_op":      float64(st.rt.allocObjs) / float64(st.domains),
			"peak_heap_mib":      median(st.livePeaks) / mib,
			"ok_frac":            1 - float64(st.failed)/float64(st.domains),
		})
		fmt.Fprintf(opts.log, "measured: %d units, %d domains in %.3f s\n", st.units, st.domains, st.wall)
		return res, nil
	}

	// Traced: half the time untraced for the overhead base, then the
	// traced half with spans and profiles.
	base, err := measureScan(&scanEnv{opts: opts, world: env.world}, wl, opts.seconds/2)
	if err != nil {
		return nil, err
	}
	setupSpans := env.spans
	env.spans = newSpanLog()
	var st scanStats
	prof, err := profiled(func() error {
		var err error
		st, err = measureScan(env, wl, opts.seconds/2)
		return err
	})
	if err != nil {
		return nil, err
	}
	scanChecks(env, wl, res, ref, st)
	vals := prof.layerMetrics(float64(st.domains))
	addRuntimeMetrics(vals, st.rt, st.peakObjs)
	addTraceMetrics(opts, res, vals, env.spans, st.wall/float64(st.domains), base.wall/float64(base.domains))
	addScanLayerMetrics(vals, setupSpans, env.spans, st)
	setMetrics(res, perLayer, vals)
	if err := writeTrace(opts, env.spans, prof); err != nil {
		return nil, err
	}
	return res, nil
}

func scanChecks(env *scanEnv, wl scanWorkload, res *result, ref scanUnit, st scanStats) {
	res.Attempted += st.domains
	res.Failed += st.failed
	check(env.opts, res, "delivered-once-in-order", st.failed == 0,
		"%d of %d scheduled domains missing, repeated, out of order or ending panic:/stall:", st.failed, st.domains)
	_, same := st.digests[ref.digest]
	check(env.opts, res, wl.digestCheck, len(st.digests) == 1 && same,
		"%d distinct digests over %d units; reference %s", len(st.digests), st.units, ref.digest)
	fmt.Fprintf(env.opts.log, "tables sha256 %s\n", ref.digest)
	if wl.verify != nil {
		wl.verify(env, res, st.last)
	}
}

// addScanLayerMetrics records the scan layers' spans and counts. Times are
// per unit (one repetition of the workload); counts come from the last
// unit's registry, so they repeat exactly for a seed.
func addScanLayerMetrics(vals map[string]float64, setupSpans, spans *spanLog, st scanStats) {
	units := float64(st.units)
	gen, genCalls := setupSpans.busyByName("websim.generate")
	if genCalls > 0 {
		vals["websim.generate_s"] = gen / float64(genCalls)
	}
	self, _, _ := spans.selfTimes()
	vals["scanner.scan_s"] = self["scanner"] / units
	stream, _ := spans.busyByName("scanner.run_stream")
	add, adds := spans.busyByName("analysis.add")
	render, _ := spans.busyByName("analysis.render")
	vals["analysis.add_s"] = add / units
	if adds > 0 {
		vals["analysis.add_ns_per_domain"] = add / float64(adds) * 1e9
	}
	if stream > 0 {
		vals["analysis.sink_busy_frac"] = add / stream
	}
	vals["analysis.render_s"] = render / units

	u := st.last
	reg := u.reg
	attempted := float64(reg.Counter("spinscan_conns_attempted_total").Value())
	succeeded := float64(reg.Counter("spinscan_conns_succeeded_total").Value())
	vals["scanner.domains"] = float64(u.domains)
	vals["scanner.conns_attempted"] = attempted
	vals["scanner.conns_succeeded"] = succeeded
	if attempted > 0 {
		vals["scanner.handshake_ratio"] = succeeded / attempted
	}
	vals["scanner.retries"] = float64(reg.CounterTotal("retries_total"))
	vals["scanner.failed_domains"] = float64(u.domains-u.delivered) + float64(u.bad)
	sent := float64(reg.Counter("netem_packets_sent_total").Value())
	vals["netem.packets_sent"] = sent
	vals["netem.packets_dropped"] = float64(reg.Counter("netem_packets_dropped_total").Value())
	vals["netem.packets_reordered"] = float64(reg.Counter("netem_packets_reordered_total").Value())
	vals["netem.packets_per_domain"] = sent / float64(u.domains)
	queries := float64(reg.Counter("dns_queries_total").Value())
	hits := float64(reg.Counter("dns_cache_hits_total").Value())
	misses := float64(reg.Counter("dns_cache_misses_total").Value())
	vals["dns.queries"] = queries
	if hits+misses > 0 {
		vals["dns.cache_hit_ratio"] = hits / (hits + misses)
	}
	if n := len(u.weekTimes); n > 0 {
		vals["campaign.week_first_s"] = u.weekTimes[0]
		vals["campaign.week_last_s"] = u.weekTimes[n-1]
		vals["campaign.week_growth"] = u.weekTimes[n-1] / u.weekTimes[0]
	}
	vals["resilience.journal_bytes"] = float64(u.journal.bytes)
	vals["resilience.journal_segments"] = float64(u.journal.segments)
	vals["resilience.checkpoint_errors"] = float64(reg.Counter("checkpoint_errors_total").Value())
	vals["resilience.journal_bytes_per_domain"] = float64(u.journal.bytes) / float64(u.domains)
}
