package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// workload is one way of driving the topology.
type workload struct {
	name      string
	rate      float64 // traces/s of the open-loop schedule; 0 = full speed
	telemetry bool
	workers   int  // 1 = one runtime; 2 = two runtimes over loopback TCP
	byHand    bool // runs only when asked for: BENCHMARK.json leaves it out
}

// replay is run by hand only. On a shared 2-vCPU host the speed of a
// single CPU-bound thread swings by up to 2x within seconds, and replay's
// throughput and closed-loop latency follow it more closely than dist2's:
// the quartile spread of its throughput over ten 30 s runs reached 0.29 of
// the median. dist2 does the same CEP work at full speed, so per-tuple CPU
// gains still show in the benchmark, and dropping replay leaves the runs
// long enough to average the host's swings out.
var workloads = []workload{
	{name: "replay", workers: 1, byHand: true},
	{name: "paced", rate: pacedRate, telemetry: true, workers: 1},
	{name: "dist2", workers: 2},
}

// fullSpeedWindow is how many traces a full-speed generator keeps in the
// topology: it emits whenever fewer are in flight (emitted, but not yet
// through the engines). A closed loop of this many outstanding traces
// keeps every transport batch full, while the queues stay at a steady
// depth instead of absorbing most of the feed: unbounded, the executors'
// 1024-batch queues hold over half of a 27k-trace feed, and a detection's
// latency then depends on how far those queues had filled when it fired.
const fullSpeedWindow = 4096

// pacedRate is the paced schedule: about a fifth of replay capacity on a
// 2-core host, so the topology is far from saturation even when the host
// is slowed by its neighbours. At twice this rate the engines' CPU is near
// a third of the host and GC cycles cover enough of the run that latency
// tripled whenever the host ran slower.
const pacedRate = 5000

// A paced pass whose generator ran this late at p99, or whose backlog
// grew past this many seconds of traffic, did not hold its schedule: it
// is discarded, not recorded. A held schedule still runs late by up to a
// scheduler time slice (10 ms) now and then: on two cores the generator
// waits behind busy executors while the GC holds a P.
const (
	maxLateP99     = 50 * time.Millisecond
	maxBacklogSecs = 0.1
)

// components lists the Figure 8 components in topology order.
var components = []string{
	core.CompBusReader, core.CompPreProcess, core.CompAreaTrack, core.CompBusStops,
	core.CompSplitter, core.CompEsper, core.CompStorer,
}

// pass is one set-up, run and check of the topology on the feed.
type pass struct {
	traced  bool
	tr      *tracer // the traced pass's spans
	traces  int
	failed  int64
	checks  []error       // failed output checks
	late    error         // why a paced pass missed its schedule; it is then not measured
	setup   time.Duration // wall time until every worker's engines are ready
	times   setupTimes    // mean over workers
	install time.Duration // every EngineSetup call, summed
	run     time.Duration
	latNs   []int64
	// m holds the per-pass numbers the per-layer report draws on.
	m map[string]float64
	// totals are the runtime's per-component counters, summed over workers.
	totals map[string]storm.ComponentTotal
}

// detLog records every detection the engines emit: the triggering trace's
// key and the emission time. It is preallocated and safe for concurrent
// use by the engines' listeners.
type detLog struct {
	t0   time.Time
	recs []detRec
	n    atomic.Int64
	tr   *tracer
}

type detRec struct {
	key  traceKey
	atNs int64
	ok   bool
}

func (d *detLog) listen(_ *cep.Statement, outs []cep.Output) {
	var spanStart int64
	if d.tr != nil {
		spanStart = d.tr.now()
	}
	at := int64(time.Since(d.t0))
	for _, o := range outs {
		k, ok := bdKey(o)
		if i := d.n.Add(1) - 1; i < int64(len(d.recs)) {
			d.recs[i] = detRec{key: k, atNs: at, ok: ok}
		}
	}
	if d.tr != nil {
		d.tr.add(spanDetect, -1, -1, spanStart, d.tr.now())
	}
}

// countingListener counts the bytes crossing the connections it accepts.
// The storm transport only reads the connections it accepts and tunes
// them to what Go and the OS already default to at trafficd's settings
// (TCP_NODELAY on, default buffers), so hiding the *net.TCPConn behind
// the wrapper changes nothing it does.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// bench is everything fixed for one invocation.
type bench struct {
	wl     workload
	xml    []byte
	traces []busdata.Trace
	index  map[traceKey]int32
	ref    *reference // computed from the first pass's worker
	rules  int
}

// runPass sets up the workload's workers, runs the topology until the
// feed is drained, and checks its outputs against the reference.
func (b *bench) runPass(traced bool) (*pass, []*worker, error) {
	runtime.GC()
	n := len(b.traces)
	var tr *tracer
	if traced {
		tr = newTracer(time.Now(), 16*n+1024)
	}
	var interval time.Duration
	if b.wl.rate > 0 {
		interval = time.Duration(float64(time.Second) / b.wl.rate)
	}
	fr := newFeedRun(b.traces, interval, tr)
	if interval == 0 {
		fr.window = fullSpeedWindow
	}
	// Each trace fires each rule at most once: it has one location per field.
	det := &detLog{recs: make([]detRec, n*max(b.rules, 1)), tr: tr}

	cfgs := make([]setupConfig, b.wl.workers)
	var tcpBytes atomic.Int64
	for i := range cfgs {
		cfgs[i] = setupConfig{xml: b.xml, telemetry: b.wl.telemetry, spout: fr.factory(), listener: det.listen, tr: tr, installed: fr.engineReady}
	}
	if b.wl.workers > 1 {
		peers := make([]string, b.wl.workers)
		lns := make([]net.Listener, b.wl.workers)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range lns[:i] {
					l.Close()
				}
				return nil, nil, err
			}
			lns[i], peers[i] = countingListener{Listener: ln, bytes: &tcpBytes}, ln.Addr().String()
		}
		// trafficd -ack.timeout 5s -ack.mode epoch -worker.peers …
		for i := range cfgs {
			cfgs[i].extra = []storm.Option{
				storm.WithWorker(i, peers), storm.WithListener(lns[i]),
				storm.WithHeartbeat(time.Second), storm.WithTCPNoDelay(true),
				storm.WithAckTimeout(5 * time.Second), storm.WithMaxRetries(3),
				storm.WithAckMode(storm.AckEpoch),
			}
		}
	}

	// Set-up: every worker at once, as separate trafficd processes would.
	setupStart := time.Now()
	ws := make([]*worker, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i], errs[i] = setupWorker(b.traces, cfgs[i])
		}(i)
	}
	wg.Wait()
	p := &pass{traced: traced, tr: tr, traces: n, setup: time.Since(setupStart), m: map[string]float64{}}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	// Every worker builds the whole topology; each EsperBolt task is
	// prepared on exactly one of them.
	fr.expectEngines(ws[0].engines)
	for _, w := range ws {
		p.times.quadtree += w.times.quadtree / time.Duration(len(ws))
		p.times.history += w.times.history / time.Duration(len(ws))
		p.times.batch += w.times.batch / time.Duration(len(ws))
		p.times.partition += w.times.partition / time.Duration(len(ws))
		p.times.load += w.times.load / time.Duration(len(ws))
	}

	// Run.
	for _, w := range ws {
		if w.exporter != nil {
			w.exporter.Start()
		}
	}
	stopSampler := make(chan struct{})
	backlog := make(chan int64, 1)
	fr.t0 = time.Now()
	det.t0 = fr.t0
	go func() { backlog <- watchBacklog(ws, fr, stopSampler) }()
	runErrs := make([]error, len(ws))
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			runErrs[i] = w.rt.RunContext(context.Background())
		}(i, w)
	}
	wg.Wait()
	total := time.Since(fr.t0)
	after := readUsage()
	// Set-up lasts until every engine is ready; the run, from then on.
	p.setup += time.Duration(fr.readyNs)
	p.run = total - time.Duration(fr.readyNs)
	close(stopSampler)
	backlogMax := <-backlog
	for _, w := range ws {
		if w.exporter != nil {
			w.exporter.Stop()
		}
		p.install += time.Duration(w.installNs.Load())
	}
	if err := errors.Join(runErrs...); err != nil {
		p.checks = append(p.checks, fmt.Errorf("run: %w", err))
	}

	if b.ref == nil {
		ref, err := runReference(ws[0], b.traces, nil)
		if err != nil {
			return nil, nil, err
		}
		b.ref = ref
	}
	b.measure(p, ws, fr, det, fr.readyUsage, after, backlogMax, float64(tcpBytes.Load()))
	return p, ws, nil
}

// measure fills the pass's numbers and output checks.
func (b *bench) measure(p *pass, ws []*worker, fr *feedRun, det *detLog, before, after usage, backlogMax int64, tcpBytes float64) {
	n := float64(p.traces)
	ref := b.ref
	p.totals = map[string]storm.ComponentTotal{}
	var replays uint64
	stored := 0
	for _, w := range ws {
		for _, t := range w.rt.Monitor().TotalsByComponent() {
			sum := p.totals[t.Component]
			sum.Component = t.Component
			sum.Executed += t.Executed
			sum.Emitted += t.Emitted
			sum.Errors += t.Errors
			sum.Dropped += t.Dropped
			p.totals[t.Component] = sum
		}
		replays += w.rt.FaultTotals().Replays
		stored += w.db.Count(core.EventsTable)
	}
	var dropped, errs uint64 // dropped counts expired anchors too
	for _, t := range p.totals {
		dropped += t.Dropped
		errs += t.Errors
	}
	split := p.totals[core.CompSplitter].Executed
	esper := p.totals[core.CompEsper].Executed
	storer := p.totals[core.CompStorer].Executed
	detections := det.n.Load()
	p.failed = int64(dropped + errs)
	if split < uint64(p.traces) {
		p.failed += int64(uint64(p.traces) - split)
	}

	check := func(ok bool, format string, args ...any) {
		if !ok {
			p.checks = append(p.checks, fmt.Errorf(format, args...))
		}
	}
	check(dropped == 0, "%d tuples dropped", dropped)
	check(errs == 0, "%d task errors", errs)
	check(split == uint64(p.traces), "Splitter executed %d of %d traces emitted", split, p.traces)
	check(esper == uint64(ref.events), "EsperBolt executed %d, the reference fan-out is %d", esper, ref.events)
	check(storer == uint64(detections) && stored == int(detections),
		"%d detections emitted by the engines, %d executed by EventsStorer, %d stored", detections, storer, stored)
	check(detections <= int64(len(det.recs)), "detection log overflowed (%d > %d)", detections, len(det.recs))

	// Detection latency, from each triggering trace's due time.
	unresolved := 0
	for _, r := range det.recs[:min(detections, int64(len(det.recs)))] {
		i, ok := b.index[r.key]
		if !r.ok || !ok {
			unresolved++
			continue
		}
		p.latNs = append(p.latNs, r.atNs-fr.dueNs(int(i)))
	}
	check(unresolved == 0, "%d detections not attributable to a trace", unresolved)

	m := p.m
	m["throughput_tps"] = n / p.run.Seconds()
	m["core.fanout"] = float64(esper) / n
	if esper > 0 {
		m["cep.detect_per_event"] = float64(detections) / float64(esper)
	}
	if ref.detections > 0 {
		m["cep.detection_drift"] = math.Abs(float64(detections-ref.detections)) / float64(ref.detections)
	}
	m["storm.dropped"] = float64(dropped)
	m["storm.errors"] = float64(errs)
	m["storm.replays"] = float64(replays + uint64(fr.replayed.Load()))
	m["bench.backlog_max"] = float64(backlogMax)
	m["tcp.bytes_per_trace"] = tcpBytes / n
	m["epoch.checkpoints"] = float64(fr.checkpoints.Load())
	m["ledger.run_cpu_us_per_trace"] = float64(after.cpu-before.cpu) / 1e3 / n
	m["runtime.alloc_bytes_per_trace"] = (after.allocBytes - before.allocBytes) / n
	if busy := (after.cpuTotal - after.cpuIdle) - (before.cpuTotal - before.cpuIdle); busy > 0 {
		m["runtime.gc_cpu_frac"] = (after.cpuGC - before.cpuGC) / busy
	}

	// Program counters, read through Monitor.Collect into our own registry.
	type comp struct{ executed, batches, nanos float64 }
	comps := map[string]*comp{}
	for _, w := range ws {
		reg := telemetry.NewRegistry()
		w.rt.Monitor().Collect(reg)
		snap := reg.Gather()
		for _, id := range components {
			c := comps[id]
			if c == nil {
				c = &comp{}
				comps[id] = c
			}
			exec := metricValue(snap, "storm."+id+".executed")
			c.executed += exec
			c.batches += metricValue(snap, "storm."+id+".batches")
			c.nanos += exec * metricValue(snap, "storm."+id+".proc_latency_ns")
		}
		if w.tel != nil {
			if h, ok := w.tel.Gather().Get("storm." + core.CompStorer + ".e2e_latency_ns"); ok && h.Histogram != nil {
				m["telemetry.storer_e2e_p99_ms"] = float64(h.Histogram.P99) / 1e6
			}
		}
	}
	for _, id := range components {
		c := comps[id]
		if c.executed > 0 {
			m["storm."+id+".proc_ns"] = c.nanos / c.executed
		}
		if id != core.CompBusReader && c.batches > 0 {
			m["storm."+id+".batch_fill"] = c.executed / c.batches
		}
	}

	if fr.interval > 0 {
		late := make([]int64, len(fr.emitNs))
		for i, at := range fr.emitNs {
			late[i] = max(at-fr.dueNs(i), 0)
		}
		lateP99 := time.Duration(percentile(late, 0.99))
		m["bench.gen_late_p99_us"] = float64(lateP99) / 1e3
		p.late = scheduleHeld(lateP99, backlogMax, b.wl.rate)
	}
}

// scheduleHeld returns why a paced pass did not hold its schedule, or nil.
func scheduleHeld(lateP99 time.Duration, backlogMax int64, rate float64) error {
	limit := int64(maxBacklogSecs * rate)
	if lateP99 > maxLateP99 || backlogMax > limit {
		return fmt.Errorf("schedule not held: generator p99 lateness %v (limit %v), backlog peak %d (limit %d)",
			lateP99, maxLateP99, backlogMax, limit)
	}
	return nil
}

// latencyMs is the q-quantile of the pass's detection latencies.
func (p *pass) latencyMs(q float64) float64 {
	return float64(percentile(p.latNs, q)) / 1e6
}

func metricValue(s telemetry.Snapshot, name string) float64 {
	m, _ := s.Get(name)
	return m.Value
}

// watchBacklog samples the topology's counters until stop is closed. It
// publishes the traces the engines have finished with to the generator's
// window and returns the peak of traces emitted minus Splitter executed.
func watchBacklog(ws []*worker, fr *feedRun, stop <-chan struct{}) int64 {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var peak int64
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
		emitted := fr.emitted.Load()
		var splitIn, splitOut, engines uint64
		for _, w := range ws {
			for _, t := range w.rt.Monitor().TotalsByComponent() {
				switch t.Component {
				case core.CompSplitter:
					splitIn += t.Executed
					splitOut += t.Emitted
				case core.CompEsper:
					engines += t.Executed
				}
			}
		}
		peak = max(peak, emitted-int64(splitIn))
		if splitOut > 0 {
			// Engine events in trace units, at the fan-out seen so far.
			fr.done.Store(int64(float64(engines) * float64(splitIn) / float64(splitOut)))
		}
	}
}

// usage is the process's resource counters at one instant.
type usage struct {
	cpu                      time.Duration // user + system, all threads
	allocBytes               float64
	cpuGC, cpuTotal, cpuIdle float64 // runtime/metrics CPU classes, seconds
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: f(0), cpuGC: f(1), cpuTotal: f(2), cpuIdle: f(3),
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile returns the q-quantile of xs (nearest rank); xs is sorted in
// place.
func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[min(max(int(math.Ceil(q*float64(len(xs))))-1, 0), len(xs)-1)]
}

// median of xs; xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}
