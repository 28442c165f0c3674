// Command e2ebench benchmarks the paper's Figure 8 topology end to end,
// wired as cmd/trafficd wires it, on a generated Table 2 feed.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash e2ebench/run.sh --workload dist2 --seed 1 --seconds 55 --trace 0
//
// Workloads: paced (open loop at a fixed rate, telemetry on), dist2 (two
// workers over loopback TCP, epoch checkpointing, full speed) and, by hand
// only, replay (one process, full speed; see workloads). --trace 0 prints
// the end-to-end metrics; --trace 1 runs traced and untraced passes plus a
// traced single-threaded layer replay and prints the per-layer metrics. The
// last line of standard output is one JSON object; the exit code is 1 when
// an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"trafficcep/internal/core"
	"trafficcep/internal/storm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spansDir string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "replay, paced or dist2")
	fs.Int64Var(&o.seed, "seed", 1, "feed generator seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measure for at least this long (whole passes)")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.spansDir, "spans", "", "directory the traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

// topologyXML is the topology trafficd embeds, relative to the repository
// root the benchmark runs from.
const topologyXML = "cmd/trafficd/topology.xml"

// hardStop bounds a run: no pass starts that could end past it.
const hardStop = 150 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := measureWorkload(*wl, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fp := fingerprint(o)
	fpJSON, _ := json.Marshal(fp) // a map of strings and numbers always encodes
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
	for _, c := range res.checks {
		fmt.Fprintln(stdout, "CHECK FAILED:", c)
	}
	for _, d := range metricDefs {
		if v, ok := res.metrics[d.name]; ok {
			fmt.Fprintf(stdout, "%-32s %16.6g %s\n", d.name, v, d.unit)
		}
	}
	out := map[string]any{
		"correct":   len(res.checks) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.json(),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(res.checks) > 0 {
		return 1
	}
	return 0
}

// fingerprint identifies the host, build and inputs of a result.
func fingerprint(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "feed_minutes": feedMinutes,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
}

// result is one invocation's outcome.
type result struct {
	attempted, failed int64
	checks            []error
	metrics           map[string]float64
	trace             bool
}

// json renders the metrics the invocation reports: every end-to-end
// metric untraced, every per-layer metric traced.
func (r *result) json() map[string]any {
	out := map[string]any{}
	for _, d := range metricDefs {
		if d.endToEnd == r.trace {
			continue
		}
		out[d.name] = map[string]any{"value": r.metrics[d.name], "unit": d.unit}
	}
	return out
}

// measureWorkload runs passes of the workload until o.seconds have passed
// (at least three, or two when traced: one untraced, one traced) and
// reduces them to the metrics.
func measureWorkload(wl workload, o options, stderr io.Writer) (*result, error) {
	xml, err := os.ReadFile(topologyXML)
	if err != nil {
		return nil, err
	}
	parsed, err := storm.ParseXML(xml)
	if err != nil {
		return nil, err
	}
	traces, index, err := makeFeed(o.seed, feedMinutes)
	if err != nil {
		return nil, err
	}
	b := &bench{wl: wl, xml: xml, traces: traces, index: index, rules: len(parsed.Rules)}

	minPasses := 3
	if o.trace {
		minPasses = 2
	}
	res := &result{trace: o.trace, metrics: map[string]float64{}}
	start := time.Now()
	var (
		passes   []*pass
		lastPass time.Duration
		last     *worker
		runSpans []span
	)
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= minPasses && el >= time.Duration(o.seconds)*time.Second {
			break
		}
		if i > 0 && el+2*lastPass > hardStop {
			break
		}
		traced := o.trace && i%2 == 1
		last = nil // the previous pass's topology is garbage before this one starts
		passStart := time.Now()
		p, ws, err := b.runPass(traced)
		if err != nil {
			return nil, err
		}
		lastPass = time.Since(passStart)
		last = ws[0]
		fmt.Fprintf(stderr, "pass %d traced=%v: setup %.3fs, run %.3fs (%.0f traces/s), %d detections, latency p50 %.2fms p99 %.2fms\n",
			i, traced, p.setup.Seconds(), p.run.Seconds(), p.m["throughput_tps"], len(p.latNs), p.latencyMs(0.5), p.latencyMs(0.99))
		// Every pass counts towards the output checks; one that missed its
		// schedule is not measured.
		res.attempted += int64(p.traces)
		res.failed += p.failed
		res.checks = append(res.checks, p.checks...)
		if p.late != nil {
			fmt.Fprintf(stderr, "e2ebench: pass %d discarded: %v\n", i, p.late)
			continue
		}
		if traced {
			runSpans = p.tr.recorded()
		}
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("no pass of %s held its schedule", wl.name)
	}

	var untraced, traced []*pass
	samples := 0
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
			samples += len(p.latNs)
		}
	}
	// Timings are medians over passes: one pass's GC or queueing mishap
	// moves a pooled percentile, not the median of the per-pass ones.
	m := res.metrics
	m["setup_s"] = medianOf(passes, func(p *pass) float64 { return p.setup.Seconds() })
	m["throughput_tps"] = medianOf(untraced, func(p *pass) float64 { return p.m["throughput_tps"] })
	m["latency_p50_ms"] = medianOf(untraced, func(p *pass) float64 { return p.latencyMs(0.50) })
	m["latency_p99_ms"] = medianOf(untraced, func(p *pass) float64 { return p.latencyMs(0.99) })
	m["peak_rss_mb"] = peakRSSMB()
	m["bench.latency_samples"] = float64(samples) // printed with the timings, in the JSON when traced
	if !o.trace {
		return res, nil
	}

	// Per-layer: set-up spans over every pass, run counters over the
	// untraced ones, self times from a traced single-threaded replay.
	m["setup.quadtree_ms"] = medianOf(passes, func(p *pass) float64 { return ms(p.times.quadtree) })
	m["setup.history_ms"] = medianOf(passes, func(p *pass) float64 { return ms(p.times.history) })
	m["setup.batch_s"] = medianOf(passes, func(p *pass) float64 { return p.times.batch.Seconds() })
	m["setup.partition_ms"] = medianOf(passes, func(p *pass) float64 { return ms(p.times.partition) })
	m["setup.load_ms"] = medianOf(passes, func(p *pass) float64 { return ms(p.times.load) })
	m["setup.install_ms"] = medianOf(passes, func(p *pass) float64 { return ms(p.install) })
	for _, name := range passMetrics {
		m[name] = medianOf(untraced, func(p *pass) float64 { return p.m[name] })
	}
	for _, p := range passes {
		m["storm.dropped"] += p.m["storm.dropped"]
		m["storm.errors"] += p.m["storm.errors"]
		m["storm.replays"] += p.m["storm.replays"]
		m["bench.backlog_max"] = max(m["bench.backlog_max"], p.m["bench.backlog_max"])
	}
	m["failed_frac"] = float64(res.failed) / float64(res.attempted)
	if len(traced) > 0 && len(untraced) > 0 {
		if wl.rate > 0 {
			p50 := medianOf(traced, func(p *pass) float64 { return p.latencyMs(0.50) })
			m["bench.trace_overhead_frac"] = p50/m["latency_p50_ms"] - 1
		} else {
			tps := medianOf(traced, func(p *pass) float64 { return p.m["throughput_tps"] })
			m["bench.trace_overhead_frac"] = 1 - tps/m["throughput_tps"]
		}
	}

	var mean, peak float64
	for _, e := range b.ref.perEngine {
		mean += float64(e) / float64(len(b.ref.perEngine))
		peak = max(peak, float64(e))
	}
	m["core.engine_skew"] = peak / mean

	refTracer := newTracer(time.Now(), 16*len(traces)+1024)
	if _, err := runReference(last, traces, refTracer); err != nil {
		return nil, err
	}
	for _, p := range traced {
		if n := p.tr.lost.Load() + refTracer.lost.Load(); n > 0 {
			return nil, fmt.Errorf("%d spans did not fit the trace buffers", n)
		}
	}
	l := ledgerFrom(selfTimes(refTracer.recorded()), len(traces), m["ledger.run_cpu_us_per_trace"])
	l.into(m)
	if o.spansDir != "" {
		if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
			return nil, err
		}
		for suffix, spans := range map[string][]span{"run": runSpans, "reference": refTracer.recorded()} {
			if err := writeSpans(filepath.Join(o.spansDir, "spans-"+wl.name+"-"+suffix+".csv"), spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// passMetrics are the per-pass numbers reported as their median over the
// untraced passes.
var passMetrics = []string{
	"ledger.run_cpu_us_per_trace", "runtime.alloc_bytes_per_trace", "runtime.gc_cpu_frac",
	"core.fanout", "cep.detect_per_event", "cep.detection_drift",
	"bench.gen_late_p99_us", "telemetry.storer_e2e_p99_ms",
	"tcp.bytes_per_trace", "epoch.checkpoints",
}

func init() {
	for _, c := range components {
		passMetrics = append(passMetrics, "storm."+c+".proc_ns")
		if c != core.CompBusReader {
			passMetrics = append(passMetrics, "storm."+c+".batch_fill")
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianOf(ps []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}
