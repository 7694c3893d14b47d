package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tinySizes shrinks every workload to a fraction of a second.
var tinySizes = sizes{
	emulatedScale: 400000,
	fastScale:     400000,
	weeks:         2,
	setupReps:     1,
	captureReps:   1,
	ingestClients: 16, ingestServers: 4, traceDatagrams: 3000, tableSlots: 256,
}

// expectedChecks are the output checks each workload must run.
var expectedChecks = map[string][]string{
	"emulated-week":    {"delivered-once-in-order", "tables-digest-repeats"},
	"fast-weeks":       {"delivered-once-in-order", "tables-digest-repeats"},
	"follow-journal":   {"delivered-once-in-order", "follow-equals-one-shot", "follow-journal-clean", "follow-journal-written"},
	"spinwatch-ingest": {"flow-conservation", "datagrams-counted", "rtt-samples"},
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every named metric prints with its unit and every output
// check runs and passes.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				var log bytes.Buffer
				opts := options{
					workload: name, seed: 3, seconds: 0.3, trace: traced,
					outDir: t.TempDir(), size: tinySizes, log: &log,
				}
				res, err := workloads[name](opts)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				specs := endToEnd
				checks := expectedChecks[name]
				if traced {
					specs = perLayer
					checks = append(checks, "layer-self-times-sum-to-wall")
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", s.name, m, ok, s.unit)
					}
				}
				for _, c := range checks {
					if !strings.Contains(log.String(), "check "+c+" ") {
						t.Errorf("check %s did not run\n%s", c, log.String())
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back map[string]any
				if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
					t.Errorf("result line %s does not hold exactly correct, attempted, failed and metrics", line)
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workload and metric lists equal
// to what the program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	same := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	data, err = os.ReadFile("facts.json")
	if err != nil {
		t.Fatal(err)
	}
	var facts struct {
		Workloads map[string]json.RawMessage
		EndToEnd  map[string]string `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &facts); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(facts.Workloads); strings.Join(got, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("facts.json describes workloads %v, program runs %v", got, workloadNames())
	}
	for _, s := range endToEnd {
		if facts.EndToEnd[s.name] == "" {
			t.Errorf("facts.json does not define end-to-end metric %s", s.name)
		}
	}
}

func TestCharge(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "quicspin/internal/wire.ParseHeaderInto", "quicspin/internal/flowtable.(*Table).ingestLocked"}, "wire"},
		{[]string{"math/rand.(*rngSource).Seed", "quicspin/internal/scanner.(*fastEngine).scanDomain"}, "rand"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "quicspin/internal/analysis.(*Accumulator).Add"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "quicspin/internal/analysis.(*Accumulator).Add"}, "analysis"},
		{[]string{"quicspin/internal/scanner.RunStream.func1", "main.streamWeek"}, "scanner"},
		{[]string{"time.Now", "main.measureIngest"}, "bench"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	} {
		if got := charge(tc.stack); got != tc.want {
			t.Errorf("charge(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}
