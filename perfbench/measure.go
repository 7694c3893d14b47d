package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Runtime metrics the benchmark reads. Live bytes is the heap the last GC
// marked; heap objects bytes adds the garbage not yet swept, so its peak
// swings with GC timing.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mHeapLive    = "/gc/heap/live:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// rtSample is one read of the cumulative runtime counters.
type rtSample struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, totalCPU                 float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// sub returns the counter deltas from s0 to s.
func (s rtSample) sub(s0 rtSample) rtSample {
	return rtSample{
		allocBytes: s.allocBytes - s0.allocBytes,
		allocObjs:  s.allocObjs - s0.allocObjs,
		gcCycles:   s.gcCycles - s0.gcCycles,
		gcCPU:      s.gcCPU - s0.gcCPU,
		totalCPU:   s.totalCPU - s0.totalCPU,
	}
}

// heapSampler polls heap sizes on its own goroutine and keeps the maxima
// since the last Peak call.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}

	mu            sync.Mutex
	objects, live uint64
}

// sampleEvery is the heap polling period: short against a GC cycle, so
// the sampled maximum sits close to the true peak.
const sampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: mHeapObjects}, {Name: mHeapLive}}
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.objects = max(h.objects, s[0].Value.Uint64())
			h.live = max(h.live, s[1].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Peak returns the peak heap-object and live-heap bytes since the previous
// call and starts a new interval.
func (h *heapSampler) Peak() (objects, live uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	objects, live = h.objects, h.live
	h.objects, h.live = 0, 0
	return objects, live
}

// Stop ends sampling.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

const mib = 1 << 20

// quantile returns the q-quantile of xs (nearest rank); xs is sorted in
// place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// reader issues dashboard reads open-loop at a fixed rate on its own
// goroutine. Each read's latency is timed from when it was due, so a
// stalled read also charges the reads queued behind it; lateness is how
// far behind schedule the generator started each read.
type reader struct {
	stop chan struct{}
	done chan struct{}
	// Traced, each read is a bench.read span from its due time to its end,
	// with the read call itself as a child span named call.
	waits, calls *aggSpan

	// Written by the reader goroutine only; Stop reads them after it ends.
	latencies []float64 // seconds, from due time to completion
	lateness  []float64 // seconds, from due time to start
}

// readRate is the dashboard read rate: ten reads beyond the 99th
// percentile need at least 1000 reads, which a 10 s run provides.
const readRate = 100

func startReader(read func(), spans *spanLog, call string) *reader {
	r := &reader{
		stop: make(chan struct{}), done: make(chan struct{}),
		waits: spans.aggregate("bench.read", 0), calls: spans.aggregate(call, 0),
	}
	go func() {
		defer close(r.done)
		period := time.Second / readRate
		start := time.Now()
		for n := 1; ; n++ {
			due := start.Add(time.Duration(n) * period)
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-r.stop:
					t.Stop()
					return
				case <-t.C:
				}
			} else {
				select {
				case <-r.stop:
					return
				default:
				}
			}
			began := time.Now()
			read()
			end := time.Now()
			r.latencies = append(r.latencies, end.Sub(due).Seconds())
			r.lateness = append(r.lateness, began.Sub(due).Seconds())
			if r.waits != nil {
				r.waits.add(due, end)
				r.calls.add(began, end)
			}
		}
	}()
	return r
}

// readStats summarises an open-loop reader.
type readStats struct {
	n                int
	p50, p99         float64 // seconds
	lateP50, lateP99 float64 // seconds
}

// Stop ends the reads and summarises them.
func (r *reader) Stop() readStats {
	close(r.stop)
	<-r.done
	if r.calls != nil {
		r.calls.parent = r.waits.flush()
		r.calls.flush()
	}
	return readStats{
		n:       len(r.latencies),
		p50:     quantile(r.latencies, 0.50),
		p99:     quantile(r.latencies, 0.99),
		lateP50: quantile(r.lateness, 0.50),
		lateP99: quantile(r.lateness, 0.99),
	}
}
