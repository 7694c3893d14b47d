package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/flowtable"
	"quicspin/internal/h3"
	"quicspin/internal/hostile"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

// Trace-capture parameters of spinwatch-ingest: a shaped path with loss,
// reordering and duplication, a mix of spinning, all-zero and all-one
// servers, and a share of servers that lie about their spin bit.
const (
	ingestSpinFrac  = 0.7
	ingestLiarFrac  = 0.2
	ingestBodyBytes = 16 << 10
	// ingestBatch is the datagrams per IngestBatch call.
	ingestBatch = 64
	// snapshotTopK is the dashboard's slowest-flows list length.
	snapshotTopK = 10
	// passGap separates replay passes in trace time. Against the table's
	// default 30 s idle timeout it leaves the previous pass's flows live
	// and the one before idle, so admission meets both idle reclamation
	// and LRU eviction of live flows.
	passGap = 15 * time.Second
)

var ingestPath = netem.PathConfig{
	Delay: 10 * time.Millisecond, Jitter: 2 * time.Millisecond,
	LossRate: 0.01, ReorderRate: 0.01, DuplicateRate: 0.002,
}

// traceFlow is one captured datagram's place in the trace arena.
type traceFlow struct {
	t        int64
	src, dst uint64
	off, n   int
}

// captureTrace runs a seeded netem world of concurrent HTTP/3 exchanges
// as fast as the event loop allows, tapping every delivered datagram,
// until n datagrams are captured. Finished exchanges respawn from fresh
// client addresses, so the trace holds many more flows than clients.
func captureTrace(seed int64, clients, servers, n int) ([]flowtable.Packet, error) {
	start := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	loop := sim.NewLoop(start)
	rng := rand.New(rand.NewSource(seed))
	nw := netem.New(loop, ingestPath, rng)
	var arena []byte
	var recs []traceFlow
	nw.SetTap(func(now time.Time, from, to string, data []byte) {
		// The network recycles data after the tap returns: copy it out.
		recs = append(recs, traceFlow{t: now.UnixNano(), src: flowtable.HashAddr(from), dst: flowtable.HashAddr(to), off: len(arena), n: len(data)})
		arena = append(arena, data...)
	})

	body := make([]byte, ingestBodyBytes)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	srv := h3.NewServer(func(string, *h3.Request) *h3.Response {
		return &h3.Response{Status: 200, Headers: map[string]string{"server": "perfbench"}, Body: body}
	})
	// Policies and liars are dealt in fixed proportions over a seeded
	// order of servers, so every seed sees the same mix.
	order := rng.Perm(servers)
	spinners := int(ingestSpinFrac*float64(servers) + 0.5)
	liars := int(ingestLiarFrac*float64(servers) + 0.5)
	addrs := make([]string, servers)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("server-%d", i)
		rank := order[i]
		policy := core.Policy{Mode: core.ModeSpin}
		if rank >= spinners {
			policy.Mode = core.ModeZero
			if rank%2 == 0 {
				policy.Mode = core.ModeOne
			}
		}
		ep := transport.NewEndpoint(func(string) transport.Config {
			return transport.Config{Rng: rng, SpinPolicy: policy, EnableVEC: true}
		})
		host := netem.NewServerHost(nw, addrs[i], ep)
		host.OnActivity = func(ep *transport.Endpoint, now time.Time) {
			for _, conn := range ep.Conns() {
				srv.Serve("peer", conn, now)
			}
		}
		// Liars are taken from both ends of the order, so they include
		// spinning and non-spinning servers.
		if rank < liars/2 || rank >= servers-(liars-liars/2) {
			nw.SetMangler(addrs[i], hostile.NewMangler(hostile.SpinLiar))
		}
	}

	type client struct {
		conn *transport.Conn
		host *netem.ClientHost
		done bool
		dead time.Time
	}
	next := 0
	spawn := func() (*client, error) {
		c := &client{}
		addr := fmt.Sprintf("client-%d", next)
		next++
		server := addrs[rng.Intn(len(addrs))]
		c.conn = transport.NewClientConn(transport.Config{Rng: rng, EnableVEC: true}, loop.Now())
		c.host = netem.NewClientHost(nw, addr, server, c.conn)
		hc := h3.NewClientConn(c.conn)
		id, err := hc.Do(&h3.Request{Method: "GET", Authority: server, Path: "/", Headers: map[string]string{}})
		if err != nil {
			return nil, fmt.Errorf("queueing request: %w", err)
		}
		c.dead = loop.Now().Add(30 * time.Second)
		c.host.OnActivity = func(*transport.Conn, time.Time) {
			if _, complete, _ := hc.Response(id); complete {
				c.done = true
			}
		}
		c.host.Kick()
		return c, nil
	}
	live := make([]*client, clients)
	for i := range live {
		var err error
		if live[i], err = spawn(); err != nil {
			return nil, err
		}
	}
	const tick = 20 * time.Millisecond
	for target := start; len(recs) < n; {
		target = target.Add(tick)
		loop.RunUntil(target)
		for i, c := range live {
			if c.done || !loop.Now().Before(c.dead) {
				c.conn.Close(loop.Now(), 0, "exchange finished")
				c.host.Kick()
				c.host.Close()
				var err error
				if live[i], err = spawn(); err != nil {
					return nil, err
				}
			}
		}
	}
	trace := make([]flowtable.Packet, n)
	for i := range trace {
		r := recs[i]
		trace[i] = flowtable.Packet{TNanos: r.t, Src: r.src, Dst: r.dst, Data: arena[r.off : r.off+r.n : r.off+r.n]}
	}
	return trace, nil
}

// replayer feeds the trace to a table in a closed loop. Each pass over the
// trace shifts the flow keys (both endpoint hashes XOR one per-pass salt,
// which keeps a flow's two directions paired) and moves time forward by
// the trace's span plus passGap, so every pass admits a fresh generation
// of flows while older generations are evicted.
type replayer struct {
	trace  []flowtable.Packet
	period int64
	pass   int
	pos    int
	batch  []flowtable.Packet
	fed    int64
}

func newReplayer(trace []flowtable.Packet) *replayer {
	span := trace[len(trace)-1].TNanos - trace[0].TNanos
	return &replayer{trace: trace, period: span + int64(passGap), batch: make([]flowtable.Packet, ingestBatch)}
}

// next fills the next batch.
func (r *replayer) next() []flowtable.Packet {
	salt := uint64(r.pass) * 0x9e3779b97f4a7c15
	shift := int64(r.pass) * r.period
	n := 0
	for n < len(r.batch) && r.pos < len(r.trace) {
		p := r.trace[r.pos]
		r.batch[n] = flowtable.Packet{TNanos: p.TNanos + shift, Src: p.Src ^ salt, Dst: p.Dst ^ salt, Data: p.Data}
		n++
		r.pos++
	}
	if r.pos == len(r.trace) {
		r.pos = 0
		r.pass++
	}
	r.fed += int64(n)
	return r.batch[:n]
}

// ingestStats is one measured phase of spinwatch-ingest.
type ingestStats struct {
	fed                int64
	wall               float64
	rt                 rtSample
	peakObjs, peakLive uint64
	reads              readStats
	batchLat           []float64 // seconds per IngestBatch call
	ingestBusy         float64
	rates              []float64 // datagrams per second of each rateWindow
}

// rateWindow splits the measured phase for ops_per_sec, the median of the
// windows' rates, so a short stall elsewhere on the host moves one window
// rather than the whole figure.
const rateWindow = 250 * time.Millisecond

// measureIngest replays for seconds while the reader snapshots the table.
func measureIngest(tbl *flowtable.Table, rp *replayer, seconds float64, spans *spanLog) ingestStats {
	var st ingestStats
	st.batchLat = make([]float64, 0, 1<<21)
	heap := startHeapSampler()
	rd := startReader(func() { tbl.Snapshot(snapshotTopK, false) }, spans, "flowtable.snapshot")
	var stop atomic.Bool
	timer := time.AfterFunc(time.Duration(seconds*float64(time.Second)), func() { stop.Store(true) })
	defer timer.Stop()
	fed0 := rp.fed
	root := spans.begin("bench.ingest_loop", 0)
	calls := spans.aggregate("flowtable.ingest_batch", root)
	rt0 := readRuntime()
	start := time.Now()
	win, winFed := start, rp.fed
	for !stop.Load() {
		b := rp.next()
		t0 := time.Now()
		tbl.IngestBatch(b)
		t1 := time.Now()
		st.batchLat = append(st.batchLat, t1.Sub(t0).Seconds())
		st.ingestBusy += t1.Sub(t0).Seconds()
		if calls != nil {
			calls.add(t0, t1)
		}
		if d := t1.Sub(win); d >= rateWindow {
			st.rates = append(st.rates, float64(rp.fed-winFed)/d.Seconds())
			win, winFed = t1, rp.fed
		}
	}
	st.wall = elapsed(start)
	st.rt = readRuntime().sub(rt0)
	calls.flush()
	spans.end(root)
	st.reads = rd.Stop()
	st.peakObjs, st.peakLive = heap.Peak()
	heap.Stop()
	st.fed = rp.fed - fed0
	return st
}

func runSpinwatchIngest(opts options) (*result, error) {
	sz := opts.size
	var trace []flowtable.Packet
	var setup []float64
	for i := 0; i < sz.captureReps; i++ {
		trace = nil
		runtime.GC() // every repetition starts from the same heap
		t := time.Now()
		var err error
		if trace, err = captureTrace(opts.seed, sz.ingestClients, sz.ingestServers, sz.traceDatagrams); err != nil {
			return nil, fmt.Errorf("capturing trace: %w", err)
		}
		setup = append(setup, elapsed(t))
	}
	tbl := flowtable.New(flowtable.Config{Slots: sz.tableSlots})
	rp := newReplayer(trace)
	fmt.Fprintf(opts.log, "setup: %d datagrams over %.3f virtual s, capture %.3f s (median of %d)\n",
		len(trace), float64(rp.period-int64(passGap))/1e9, median(setup), len(setup))
	// Warm the table with one full pass before timing.
	for rp.pass == 0 {
		tbl.IngestBatch(rp.next())
	}
	before := tbl.Stats()
	runtime.GC() // measure from a heap without set-up garbage

	res := &result{Correct: true}
	if !opts.trace {
		st := measureIngest(tbl, rp, opts.seconds, nil)
		after := ingestChecks(opts, res, tbl, before, st)
		setMetrics(res, endToEnd, map[string]float64{
			"setup_s":            median(setup),
			"ops_per_sec":        median(st.rates),
			"alloc_bytes_per_op": float64(st.rt.allocBytes) / float64(st.fed),
			"allocs_per_op":      float64(st.rt.allocObjs) / float64(st.fed),
			"peak_heap_mib":      float64(st.peakLive) / mib,
			"ok_frac":            float64(after.Datagrams-before.Datagrams) / float64(st.fed),
		})
		fmt.Fprintf(opts.log, "measured: %d datagrams in %.3f s over %d passes; batch p50 %.3f us p99 %.3f us; %d snapshots p50 %.3f ms p99 %.3f ms (generator lateness p50 %.3f ms, p99 %.3f ms)\n",
			st.fed, st.wall, rp.pass, quantile(st.batchLat, 0.5)*1e6, quantile(st.batchLat, 0.99)*1e6,
			st.reads.n, st.reads.p50*1e3, st.reads.p99*1e3, st.reads.lateP50*1e3, st.reads.lateP99*1e3)
		return res, nil
	}

	base := measureIngest(tbl, rp, opts.seconds/2, nil)
	spans := newSpanLog()
	before = tbl.Stats()
	var st ingestStats
	prof, err := profiled(func() error {
		st = measureIngest(tbl, rp, opts.seconds/2, spans)
		return nil
	})
	if err != nil {
		return nil, err
	}
	after := ingestChecks(opts, res, tbl, before, st)
	vals := prof.layerMetrics(float64(st.fed))
	addRuntimeMetrics(vals, st.rt, st.peakObjs)
	addTraceMetrics(opts, res, vals, spans, st.wall/float64(st.fed), base.wall/float64(base.fed))
	snapBusy, snaps := spans.busyByName("flowtable.snapshot")
	vals["flowtable.ingest_ns_per_packet"] = st.ingestBusy / float64(st.fed) * 1e9
	vals["flowtable.batch_p50_us"] = quantile(st.batchLat, 0.50) * 1e6
	vals["flowtable.batch_p99_us"] = quantile(st.batchLat, 0.99) * 1e6
	if snaps > 0 {
		vals["flowtable.snapshot_self_ms"] = snapBusy / float64(snaps) * 1e3
	}
	vals["flowtable.snapshot_p50_ms"] = st.reads.p50 * 1e3
	vals["flowtable.snapshot_p99_ms"] = st.reads.p99 * 1e3
	vals["flowtable.snapshots"] = float64(snaps)
	vals["flowtable.datagrams"] = float64(after.Datagrams - before.Datagrams)
	vals["flowtable.new_flows"] = float64(after.NewFlows - before.NewFlows)
	vals["flowtable.evicted_lru"] = float64(after.EvictedLRU - before.EvictedLRU)
	vals["flowtable.evicted_idle"] = float64(after.EvictedIdle - before.EvictedIdle)
	vals["flowtable.active_flows"] = float64(after.ActiveFlows)
	vals["flowtable.samples"] = float64(after.Samples - before.Samples)
	vals["flowtable.edges"] = float64(after.Edges - before.Edges)
	vals["flowtable.parse_errors"] = float64(after.ParseErrors - before.ParseErrors)
	all := tbl.Snapshot(0, true)
	sampled := 0
	for _, f := range all.Flows {
		if f.Samples > 0 {
			sampled++
		}
	}
	if len(all.Flows) > 0 {
		vals["flowtable.sampled_flow_ratio"] = float64(sampled) / float64(len(all.Flows))
	}
	vals["bench.read_lateness_p99_ms"] = st.reads.lateP99 * 1e3
	setMetrics(res, perLayer, vals)
	if err := writeTrace(opts, spans, prof); err != nil {
		return nil, err
	}
	return res, nil
}

// ingestChecks verifies the table's accounting after a measured phase and
// returns its final stats.
func ingestChecks(opts options, res *result, tbl *flowtable.Table, before flowtable.Stats, st ingestStats) flowtable.Stats {
	after := tbl.Stats()
	counted := int64(after.Datagrams - before.Datagrams)
	res.Attempted += st.fed
	res.Failed += st.fed - counted
	check(opts, res, "flow-conservation", int64(after.NewFlows)-int64(after.EvictedIdle)-int64(after.EvictedLRU) == int64(after.ActiveFlows),
		"new %d - idle %d - lru %d = active %d", after.NewFlows, after.EvictedIdle, after.EvictedLRU, after.ActiveFlows)
	check(opts, res, "datagrams-counted", counted == st.fed, "%d counted of %d fed", counted, st.fed)
	check(opts, res, "rtt-samples", after.Samples > before.Samples, "%d samples in the measured phase", after.Samples-before.Samples)
	return after
}
