package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/storm"
)

// newBench builds the benchmark for a workload on a short feed.
func newBench(t *testing.T, wl workload, traces []busdata.Trace) *bench {
	t.Helper()
	xml, err := os.ReadFile(filepath.Join("..", topologyXML))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := storm.ParseXML(xml)
	if err != nil {
		t.Fatal(err)
	}
	index, err := indexFeed(traces)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{wl: wl, xml: xml, traces: traces, index: index, rules: len(parsed.Rules)}
}

func shortFeed(t *testing.T, minutes int) []busdata.Trace {
	t.Helper()
	traces, _, err := makeFeed(7, minutes)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// TestTrafficdParity runs cmd/trafficd on the benchmark's feed, written
// with busdata.WriteCSV, and checks that the benchmark's runtime counts
// what trafficd prints: executed, emitted and dropped per component
// through the Splitter, and EsperBolt executed.
func TestTrafficdParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/trafficd")
	}
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "feed.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := busdata.WriteCSV(w, shortFeed(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "trafficd")
	if out, err := exec.Command("go", "build", "-o", bin, "trafficcep/cmd/trafficd").CombinedOutput(); err != nil {
		t.Fatalf("building trafficd: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-traces", csvPath, "-monitor", "0", "-telemetry.off").Output()
	if err != nil {
		t.Fatalf("trafficd: %v\n%s", err, out)
	}
	want := map[string][3]uint64{}
	row := regexp.MustCompile(`(?m)^\s+(\w+)\s+executed=(\d+)\s+emitted=(\d+)\s+errors=\d+\s+dropped=(\d+)`)
	for _, m := range row.FindAllStringSubmatch(string(out), -1) {
		var v [3]uint64
		for i := range v {
			v[i], _ = strconv.ParseUint(m[i+2], 10, 64)
		}
		want[m[1]] = v
	}
	if len(want) != len(components) {
		t.Fatalf("parsed %d component totals from trafficd, want %d:\n%s", len(want), len(components), out)
	}

	// The benchmark runs on the same feed as trafficd read it back.
	rf, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	traces, err := busdata.ReadCSV(rf)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(t, workloads[0], traces)
	p, _, err := b.runPass(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.checks) > 0 {
		t.Fatalf("output checks failed: %v", p.checks)
	}
	for _, c := range components[:5] {
		got := p.totals[c]
		if v := [3]uint64{got.Executed, got.Emitted, got.Dropped}; v != want[c] {
			t.Errorf("%s executed/emitted/dropped = %v, trafficd printed %v", c, v, want[c])
		}
	}
	if got := p.totals[core.CompEsper].Executed; got != want[core.CompEsper][0] {
		t.Errorf("EsperBolt executed %d, trafficd printed %d", got, want[core.CompEsper][0])
	}
}

// TestLatencyAttribution checks that a Listing 1 firing's Row["bd"] is the
// trace whose event triggered it, on the engine's default (incremental,
// compiled) plan — the key the detection latency is resolved by. The
// reference replay compares every firing's bd with the trace it just sent.
func TestLatencyAttribution(t *testing.T) {
	traces := shortFeed(t, 3)
	b := newBench(t, workloads[0], traces)
	w, err := setupWorker(traces, setupConfig{xml: b.xml, spout: newFeedRun(traces, 0, nil).factory()})
	if err != nil {
		t.Fatal(err)
	}
	// The reference's engines are cep.New() with trafficd's EngineSetup:
	// every statement must run the compiled, incremental plan.
	eng := cep.New()
	if _, err := w.engineSetup(0, eng, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range eng.StatementNames() {
		st, _ := eng.Statement(name)
		if !st.Compiled() || st.IncrementalStrategy() == "" || st.IncrementalStrategy() == "broken" {
			t.Errorf("statement %s: compiled=%v incremental=%q, want the default plan", name, st.Compiled(), st.IncrementalStrategy())
		}
	}
	ref, err := runReference(w, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.detections == 0 {
		t.Fatal("no detections: the check is vacuous")
	}
	if ref.misattributed > 0 {
		t.Errorf("%d of %d firings carry a bd row other than the trace sent", ref.misattributed, ref.detections)
	}
}

// TestScheduleHeld checks the paced validity rule.
func TestScheduleHeld(t *testing.T) {
	for _, c := range []struct {
		late    time.Duration
		backlog int64
		held    bool
	}{
		{time.Millisecond, 100, true},
		{maxLateP99, int64(maxBacklogSecs * pacedRate), true},
		{maxLateP99 + 1, 0, false},
		{0, int64(maxBacklogSecs*pacedRate) + 1, false},
	} {
		if err := scheduleHeld(c.late, c.backlog, pacedRate); (err == nil) != c.held {
			t.Errorf("scheduleHeld(%v, %d) = %v, want held=%v", c.late, c.backlog, err, c.held)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "a", parent: 0, start: 40, end: 50},
		{name: "b", parent: 0, start: 90, end: 120}, // overruns the root by 20
	}
	got := selfTimes(spans)
	want := map[string]selfTime{"root": {1, 100 - 20 - 10 - 10}, "a": {2, 30}, "b": {1, 30}}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

// TestLedgerArithmetic runs a traced pass and a traced reference on a
// short feed and checks that the layer self times plus the unattributed
// remainder add up to the run's CPU time per trace, and that the
// single-thread baseline is the inverse of the layer sum.
func TestLedgerArithmetic(t *testing.T) {
	traces := shortFeed(t, 2)
	b := newBench(t, workloads[0], traces)
	p, ws, err := b.runPass(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.checks) > 0 {
		t.Fatalf("output checks failed: %v", p.checks)
	}
	tr := newTracer(time.Now(), 16*len(traces)+1024)
	if _, err := runReference(ws[0], traces, tr); err != nil {
		t.Fatal(err)
	}
	runCPU := p.m["ledger.run_cpu_us_per_trace"]
	if runCPU <= 0 {
		t.Fatalf("run CPU per trace = %v", runCPU)
	}
	// The layer calls are leaves of their trace's span, so their self time
	// is their duration: sum it independently of selfTimes.
	var spanUs float64
	for _, s := range tr.recorded() {
		for _, layer := range ledgerLayers {
			if s.name == layer.span {
				spanUs += float64(s.end-s.start) / 1e3 / float64(len(traces))
			}
		}
	}
	l := ledgerFrom(selfTimes(tr.recorded()), len(traces), runCPU)
	if math.Abs(l.layersUs-spanUs) > 1e-9*spanUs {
		t.Errorf("ledger layer sum %v µs, the spans sum to %v µs", l.layersUs, spanUs)
	}
	var sum float64
	for _, layer := range ledgerLayers {
		us := l.perTraceUs[layer.metric]
		if us <= 0 {
			t.Errorf("%s: %v µs per trace, want > 0", layer.metric, us)
		}
		sum += us
	}
	if d := sum + l.unattributedUs - runCPU; math.Abs(d) > 1e-9*runCPU {
		t.Errorf("Σ layers %v + unattributed %v = %v, want run CPU %v", sum, l.unattributedUs, sum+l.unattributedUs, runCPU)
	}
	m := map[string]float64{}
	l.into(m)
	if got, want := m["baseline.single_thread_tps"], 1e6/sum; math.Abs(got-want) > 1e-9*want {
		t.Errorf("baseline.single_thread_tps = %v, want %v", got, want)
	}
	if got, want := m["ledger.unattributed_frac"]*runCPU, l.unattributedUs; math.Abs(got-want) > 1e-9*runCPU {
		t.Errorf("unattributed_frac × run CPU = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json names exactly
// the workloads the program does not leave to be run by hand, and the
// metrics it reports, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var benchmarked []string
	for _, wl := range workloads {
		if !wl.byHand {
			benchmarked = append(benchmarked, wl.name)
		}
	}
	if len(spec.Workloads) != len(benchmarked) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(benchmarked))
	}
	for i, w := range spec.Workloads {
		if w.Name != benchmarked[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, benchmarked[i])
		}
	}
	type key struct {
		name, unit string
		endToEnd   bool
	}
	var listed []key
	for _, m := range spec.EndToEnd {
		listed = append(listed, key{m.Name, m.Unit, true})
	}
	for _, m := range spec.PerLayer {
		listed = append(listed, key{m.Name, m.Unit, false})
	}
	if len(listed) != len(metricDefs) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the program reports %d", len(listed), len(metricDefs))
	}
	for i, d := range metricDefs {
		if k := (key{d.name, d.unit, d.endToEnd}); listed[i] != k {
			t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, listed[i], k)
		}
	}
}

// TestWorkloadsPassChecks runs one pass of every workload on a short feed
// and requires its output checks to hold. A paced pass may miss its
// schedule on a slow or instrumented build; it is then discarded, as in a
// run, and only logged.
func TestWorkloadsPassChecks(t *testing.T) {
	traces := shortFeed(t, 2)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			p, _, err := newBench(t, wl, traces).runPass(false)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.checks) > 0 || p.failed > 0 {
				t.Fatalf("%d failed, checks: %v", p.failed, p.checks)
			}
			if p.late != nil {
				t.Logf("pass discarded: %v", p.late)
				return
			}
			if len(p.latNs) == 0 {
				t.Error("no detection latency samples")
			}
			if wl.workers > 1 && (p.m["epoch.checkpoints"] == 0 || p.m["tcp.bytes_per_trace"] == 0) {
				t.Errorf("dist2 took %v checkpoints and moved %v B/trace over TCP, want both > 0",
					p.m["epoch.checkpoints"], p.m["tcp.bytes_per_trace"])
			}
		})
	}
}
