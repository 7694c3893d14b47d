package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// profLayers are the layers CPU and allocation samples are charged to (see
// charge): the quicspin/internal packages a workload runs, math/rand, GC
// work, the benchmark's own code, and the rest. Samples in an internal
// package not listed land in internal_other.
var profLayers = []string{
	"websim", "scanner", "transport", "wire", "h3", "sim", "netem", "core",
	"rtt", "dns", "analysis", "campaign", "resilience", "flowtable",
	"telemetry", "hostile", "asdb", "stats", "report", "targets",
	"rand", "runtime_gc", "bench", "other", "internal_other",
}

// layerSpecs are the per-layer metrics named by the layer they measure.
// Every traced run prints all of them; a layer a workload does not run
// reads 0. Each ratio's base is printed beside it.
var layerSpecs = []metricSpec{
	{"websim.generate_s", "s"},
	{"scanner.scan_s", "s"},
	{"scanner.conns_attempted", "count"},
	{"scanner.conns_succeeded", "count"},
	{"scanner.handshake_ratio", "ratio"},
	{"scanner.retries", "count"},
	{"scanner.failed_domains", "count"},
	{"scanner.domains", "count"},
	{"netem.packets_sent", "count"},
	{"netem.packets_dropped", "count"},
	{"netem.packets_reordered", "count"},
	{"netem.packets_per_domain", "count"},
	{"dns.queries", "count"},
	{"dns.cache_hit_ratio", "ratio"},
	{"analysis.add_s", "s"},
	{"analysis.add_ns_per_domain", "ns"},
	{"analysis.sink_busy_frac", "ratio"},
	{"analysis.render_s", "s"},
	{"campaign.week_first_s", "s"},
	{"campaign.week_last_s", "s"},
	{"campaign.week_growth", "ratio"},
	{"resilience.journal_bytes", "B"},
	{"resilience.journal_segments", "count"},
	{"resilience.checkpoint_errors", "count"},
	{"resilience.journal_bytes_per_domain", "B"},
	{"flowtable.ingest_ns_per_packet", "ns"},
	{"flowtable.batch_p50_us", "us"},
	{"flowtable.batch_p99_us", "us"},
	{"flowtable.snapshot_self_ms", "ms"},
	{"flowtable.snapshot_p50_ms", "ms"},
	{"flowtable.snapshot_p99_ms", "ms"},
	{"flowtable.snapshots", "count"},
	{"flowtable.datagrams", "count"},
	{"flowtable.new_flows", "count"},
	{"flowtable.evicted_lru", "count"},
	{"flowtable.evicted_idle", "count"},
	{"flowtable.active_flows", "count"},
	{"flowtable.samples", "count"},
	{"flowtable.edges", "count"},
	{"flowtable.parse_errors", "count"},
	{"flowtable.sampled_flow_ratio", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_objects_peak_mib", "MiB"},
	{"bench.self_s", "s"},
	{"bench.read_lateness_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.self_sum_s", "s"},
	{"cpu.total_s", "s"},
	{"alloc.total_bytes_per_op", "B"},
}

// perLayer is every metric a traced run prints: layerSpecs, then each
// profile layer's CPU share and allocated bytes per operation.
var perLayer = func() []metricSpec {
	out := append([]metricSpec(nil), layerSpecs...)
	for _, l := range profLayers {
		out = append(out, metricSpec{"cpu." + l, "ratio"})
	}
	for _, l := range profLayers {
		out = append(out, metricSpec{"alloc." + l, "B"})
	}
	return out
}()

// zeroLayerValues starts a traced run's values with every per-layer metric
// at 0, so layers the workload does not run print as idle.
func zeroLayerValues() map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		vals[s.name] = 0
	}
	return vals
}

// profiles holds a traced phase's CPU profile and the allocation profile
// delta, already charged to layers.
type profiles struct {
	cpu     []byte
	cpuBy   map[string]int64 // CPU nanoseconds
	allocBy map[string]int64 // allocated bytes
}

// profiled runs fn under the CPU profiler and measures the allocations it
// makes through the heap profile's cumulative alloc_space.
func profiled(fn func() error) (*profiles, error) {
	before, err := allocProfile()
	if err != nil {
		return nil, err
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	after, err := allocProfile()
	if err != nil {
		return nil, err
	}
	p := &profiles{cpu: cpu.Bytes(), allocBy: map[string]int64{}}
	if p.cpuBy, err = layerTotals(p.cpu, "cpu"); err != nil {
		return nil, err
	}
	a0, err := layerTotals(before, "alloc_space")
	if err != nil {
		return nil, err
	}
	a1, err := layerTotals(after, "alloc_space")
	if err != nil {
		return nil, err
	}
	for l, v := range a1 {
		p.allocBy[l] = v - a0[l]
	}
	return p, nil
}

// allocProfile snapshots the cumulative allocation profile. The runtime
// publishes allocations at the end of a GC cycle, so one runs first.
func allocProfile() ([]byte, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	return b.Bytes(), nil
}

// layerMetrics charges the profiles to profLayers: cpu.<layer> is the
// layer's share of sampled CPU time (base cpu.total_s) and alloc.<layer>
// its allocated bytes per operation (base alloc.total_bytes_per_op).
func (p *profiles) layerMetrics(ops float64) map[string]float64 {
	vals := zeroLayerValues()
	known := map[string]bool{}
	for _, l := range profLayers {
		known[l] = true
	}
	fold := func(by map[string]int64) map[string]float64 {
		out := map[string]float64{}
		for l, v := range by {
			if !known[l] {
				l = "internal_other"
			}
			out[l] += float64(v)
		}
		return out
	}
	cpu, alloc := fold(p.cpuBy), fold(p.allocBy)
	var cpuTotal, allocTotal float64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, v := range alloc {
		allocTotal += v
	}
	for _, l := range profLayers {
		if cpuTotal > 0 {
			vals["cpu."+l] = cpu[l] / cpuTotal
		}
		vals["alloc."+l] = alloc[l] / ops
	}
	vals["cpu.total_s"] = cpuTotal / 1e9
	vals["alloc.total_bytes_per_op"] = allocTotal / ops
	return vals
}

// addRuntimeMetrics records the Go runtime's share of the traced phase and
// the peak of heap objects including garbage not yet swept.
func addRuntimeMetrics(vals map[string]float64, rt rtSample, peakObjs uint64) {
	if rt.totalCPU > 0 {
		vals["runtime.gc_cpu_frac"] = rt.gcCPU / rt.totalCPU
	}
	vals["runtime.cpu_s"] = rt.totalCPU
	vals["runtime.gc_cycles"] = float64(rt.gcCycles)
	vals["runtime.heap_objects_peak_mib"] = float64(peakObjs) / mib
}

// addTraceMetrics records the span self times and checks that they add up
// to the traced wall time. tracedPerOp and basePerOp are the wall seconds
// per operation with and without tracing.
func addTraceMetrics(opts options, res *result, vals map[string]float64, spans *spanLog, tracedPerOp, basePerOp float64) {
	self, wall, worst := spans.selfTimes()
	var sum float64
	for _, v := range self {
		sum += v
	}
	vals["trace.wall_s"] = wall
	vals["trace.self_sum_s"] = sum
	vals["bench.self_s"] = self["bench"]
	if basePerOp > 0 {
		vals["trace.overhead_frac"] = tracedPerOp/basePerOp - 1
	}
	check(opts, res, "layer-self-times-sum-to-wall", wall > 0 && math.Abs(sum-wall) <= 0.01*wall && worst > -0.01,
		"self times sum to %.4f s of %.4f s traced wall; worst child overrun %.2f%%", sum, wall, -worst*100)
	for _, l := range sortedKeys(self) {
		fmt.Fprintf(opts.log, "self %-12s %.4f s\n", l, self[l])
	}
}

// writeTrace stores the traced run's spans and CPU profile in opts.outDir.
func writeTrace(opts options, spans *spanLog, p *profiles) error {
	base := fmt.Sprintf("%s-seed%d", opts.workload, opts.seed)
	path, err := spans.write(opts.outDir, base)
	if err != nil {
		return err
	}
	cpuPath := filepath.Join(opts.outDir, base+".cpu.pprof")
	if err := os.WriteFile(cpuPath, p.cpu, 0o644); err != nil {
		return fmt.Errorf("writing cpu profile: %w", err)
	}
	fmt.Fprintf(opts.log, "trace written: %s, %s\n", path, cpuPath)
	return nil
}
