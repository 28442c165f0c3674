package main

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/storm"
)

// feedMinutes is the service time every workload replays: 911 buses at
// one report per 20 s (the Table 2 calibration) give 2,733 traces a
// minute.
const feedMinutes = 10

// makeFeed generates the Table 2 feed for a seed and indexes it.
func makeFeed(seed int64, minutes int) ([]busdata.Trace, map[traceKey]int32, error) {
	cfg := busdata.DefaultConfig()
	cfg.Seed = seed
	gen, err := busdata.NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	traces := gen.Generate(time.Duration(minutes) * time.Minute)
	index, err := indexFeed(traces)
	return traces, index, err
}

// indexFeed maps the (vehicleId, ts) key a detection's triggering event
// carries to the trace's position in the feed.
func indexFeed(traces []busdata.Trace) (map[traceKey]int32, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("the feed is empty")
	}
	index := make(map[traceKey]int32, len(traces))
	for i, tr := range traces {
		k := traceKey{tr.VehicleID, tr.Timestamp.Unix()}
		if _, dup := index[k]; dup {
			return nil, fmt.Errorf("trace key %v is not unique", k)
		}
		index[k] = int32(i)
	}
	return index, nil
}

// traceKey identifies one trace of the feed.
type traceKey struct {
	vehicle string
	ts      int64
}

// feedRun is the generator state shared by the spout tasks of one pass.
// The spouts start emitting once every EsperBolt task has run EngineSetup
// (inside RunContext, from Prepare), at readyNs: the topology is then fully
// set up. Paced, trace i is due i·interval after that; at full speed a
// trace is due when it is emitted.
type feedRun struct {
	traces   []busdata.Trace
	interval time.Duration // 0: full speed
	t0       time.Time     // when RunContext was called
	emitNs   []int64       // per trace: emit time, ns after t0
	tr       *tracer       // nil when untraced

	// window, when positive, caps traces in flight: emitted minus done,
	// the traces the engines have finished with.
	window int64
	done   atomic.Int64

	// pending counts EngineSetup calls still to come; the last one takes
	// readyUsage, sets readyNs and closes ready.
	pending    atomic.Int64
	ready      chan struct{}
	readyNs    int64
	readyUsage usage

	emitted     atomic.Int64
	replayed    atomic.Int64
	checkpoints atomic.Int64
}

func newFeedRun(traces []busdata.Trace, interval time.Duration, tr *tracer) *feedRun {
	return &feedRun{traces: traces, interval: interval, emitNs: make([]int64, len(traces)), tr: tr, ready: make(chan struct{})}
}

// expectEngines sets how many EngineSetup calls the run will make.
func (f *feedRun) expectEngines(n int) { f.pending.Store(int64(n)) }

// engineReady records one EngineSetup call.
func (f *feedRun) engineReady() {
	if f.pending.Add(-1) == 0 {
		f.readyUsage = readUsage()
		f.readyNs = int64(time.Since(f.t0))
		close(f.ready)
	}
}

// waitReady blocks until every engine is set up, or for at most a minute:
// an EngineSetup that fails never reports, and the run fails anyway.
func (f *feedRun) waitReady() {
	select {
	case <-f.ready:
	case <-time.After(time.Minute):
	}
}

// dueNs is when trace i should be sent, in ns after t0.
func (f *feedRun) dueNs(i int) int64 {
	if f.interval == 0 {
		return f.emitNs[i]
	}
	return f.readyNs + int64(i)*int64(f.interval)
}

// factory returns the spout factory the worker binds to the BusReader type.
func (f *feedRun) factory() storm.SpoutFactory {
	return func() storm.Spout { return &genSpout{run: f} }
}

// genSpout emits BusReader's payload for the feed: task i of n emits
// traces i, i+n, … like the BusReader, so PreProcess releases each map.
// It is replayable, so epoch checkpoints hold its offset.
type genSpout struct {
	run       *feedRun
	idx, step int
	next      int // first index this task has never emitted
}

func (s *genSpout) Open(ctx storm.TaskContext) error {
	s.idx, s.next = ctx.TaskIndex, ctx.TaskIndex
	s.step = max(ctx.NumTasks, 1)
	s.run.waitReady()
	return nil
}

func (s *genSpout) Close() error { return nil }

func (s *genSpout) NextTuple(col storm.Collector) (bool, error) {
	f := s.run
	if s.idx >= len(f.traces) {
		return false, nil
	}
	for f.window > 0 && f.emitted.Load()-f.done.Load() >= f.window {
		time.Sleep(100 * time.Microsecond)
	}
	if f.interval > 0 {
		if d := time.Duration(f.dueNs(s.idx)) - time.Since(f.t0); d > 0 {
			time.Sleep(d)
		}
	}
	start := time.Since(f.t0)
	var spanStart int64
	if f.tr != nil {
		spanStart = f.tr.now()
	}
	vals := f.traces[s.idx].FillValues(busdata.GetValues())
	if ac, ok := col.(storm.AnchorCollector); ok && ac.Acking() {
		ac.EmitAnchored(strconv.Itoa(s.idx), vals)
	} else {
		col.Emit(vals)
	}
	f.emitNs[s.idx] = int64(start)
	if f.tr != nil {
		f.tr.add(spanGenEmit, s.idx, -1, spanStart, f.tr.now())
	}
	f.emitted.Add(1)
	if s.idx < s.next {
		f.replayed.Add(1)
	} else {
		s.next = s.idx + s.step
	}
	s.idx += s.step
	return s.idx < len(f.traces), nil
}

func (s *genSpout) Ack(string)  {}
func (s *genSpout) Fail(string) {}

// Checkpoint implements storm.ReplayableSpout: the snapshot is the offset.
func (s *genSpout) Checkpoint() []byte {
	s.run.checkpoints.Add(1)
	return binary.AppendUvarint(nil, uint64(s.idx))
}

// Restore implements storm.ReplayableSpout.
func (s *genSpout) Restore(snapshot []byte) {
	if v, n := binary.Uvarint(snapshot); n > 0 {
		s.idx = int(v)
	}
}
