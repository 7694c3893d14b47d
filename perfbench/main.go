// Command perfbench is the repository benchmark. It runs one workload per
// invocation, checks every output, and prints one JSON result as the last
// line of standard output:
//
//	go run . --workload emulated-week --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - emulated-week: one IPv4 week-12 scan on the packet-level engine,
//     streamed into an analysis accumulator and rendered.
//   - fast-weeks: a multi-week one-shot campaign on the fast engine, as
//     `spinscan -engine fast -weeks N` runs it.
//   - follow-journal: the same weeks through campaign.Follow with a
//     checkpoint journal (service defaults: no retention, no compaction).
//   - spinwatch-ingest: a netem trace replayed through a flow table in a
//     closed loop, with dashboard snapshots read open-loop beside it.
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separately traced run (spans around
// the calls into each layer, plus CPU and allocation profiles charged to
// the innermost quicspin/internal package on each stack).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the traced run's spans and profiles.
	outDir string
	// size fixes the workloads' inputs: benchSizes, or tiny ones in tests.
	size sizes
	// log receives human-readable progress and check lines.
	log io.Writer
}

// workloadFunc runs one workload and returns its result. A failed output
// check sets Correct to false and is reported on opts.log.
type workloadFunc func(opts options) (*result, error)

var workloads = map[string]workloadFunc{
	"emulated-week":    runEmulatedWeek,
	"fast-weeks":       runFastWeeks,
	"follow-journal":   runFollowJournal,
	"spinwatch-ingest": runSpinwatchIngest,
}

// endToEnd and perLayer are the metric names each mode prints, with their
// units; BENCHMARK.json lists the same names.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_sec", "1/s"},
	{"alloc_bytes_per_op", "B"},
	{"allocs_per_op", "count"},
	{"peak_heap_mib", "MiB"},
	{"ok_frac", "ratio"},
}

type metricSpec struct{ name, unit string }

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	outDir := flag.String("out", ".bench_build/trace", "directory for the traced run's spans and profiles")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive (got %g)\n", *seconds)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1 (got %d)\n", *traceFlag)
		os.Exit(2)
	}
	opts := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		outDir: *outDir, size: benchSizes, log: os.Stdout,
	}
	if opts.trace {
		// Sample allocations finely enough to attribute them per package;
		// set before the workload allocates anything.
		runtime.MemProfileRate = 64 << 10
	}
	printHost(opts)
	res, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHost records the facts a reader needs to compare runs: the CPU,
// the parallelism the scans use, and the toolchain.
func printHost(opts options) {
	fmt.Fprintf(opts.log, "host: nproc=%d gomaxprocs=%d workers=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), scanWorkers(), runtime.Version(), cpuModel())
	fmt.Fprintf(opts.log, "run: workload=%s seed=%d seconds=%g trace=%v\n",
		opts.workload, opts.seed, opts.seconds, opts.trace)
}

// scanWorkers is the scanner worker count: one per usable CPU.
func scanWorkers() int { return runtime.NumCPU() }

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setMetrics fills res.Metrics from values keyed by name, in the order and
// with the units of specs. A spec without a value is a bug in the
// workload, so it panics rather than printing an incomplete result.
func setMetrics(res *result, specs []metricSpec, values map[string]float64) {
	res.Metrics = make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			panic("perfbench: metric " + s.name + " was not measured")
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
}

// check records one output check on opts.log and folds it into res.
func check(opts options, res *result, name string, ok bool, detail string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAIL"
		res.Correct = false
	}
	fmt.Fprintf(opts.log, "check %-28s %s: %s\n", name, status, fmt.Sprintf(detail, args...))
}

// elapsed is a small helper so every timing uses the monotonic clock.
func elapsed(start time.Time) float64 { return time.Since(start).Seconds() }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
