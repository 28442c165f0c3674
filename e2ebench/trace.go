package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Span names, one per public call the benchmark times.
const (
	spanSetupQuadtree  = "setup.quadtree"
	spanSetupHistory   = "setup.history"
	spanSetupBatch     = "setup.batch"
	spanSetupPartition = "setup.partition"
	spanSetupLoad      = "setup.load"
	spanSetupInstall   = "setup.install"
	spanGenEmit        = "gen.emit"
	spanDetect         = "listener.detect"
	spanRefTrace       = "ref.trace"
	spanPreprocess     = "busdata.Preprocessor.Process"
	spanPath           = "quadtree.Tree.Path"
	spanAppend         = "core.DynamicManager.AppendHistory"
	spanRoute          = "core.RoutingTable.EnginesFor"
	spanSendEvent      = "cep.Engine.SendEventAt"
	spanInsert         = "sqlstore.DB.Insert"
)

// span is one timed call: start and end in ns after the tracer's origin,
// the feed index it served and the span that caused it (-1 for none).
type span struct {
	name       string
	key        int
	parent     int
	start, end int64
}

// tracer keeps spans in a preallocated buffer; add is safe for
// concurrent use and never allocates. Spans past the capacity are counted
// and lost.
type tracer struct {
	t0    time.Time
	spans []span
	n     atomic.Int64
	lost  atomic.Int64
}

func newTracer(t0 time.Time, capacity int) *tracer {
	return &tracer{t0: t0, spans: make([]span, capacity)}
}

// now is the current time in ns after the origin.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span and returns its index, or -1 when the buffer is full.
func (t *tracer) add(name string, key, parent int, start, end int64) int {
	i := int(t.n.Add(1) - 1)
	if i >= len(t.spans) {
		t.lost.Add(1)
		return -1
	}
	t.spans[i] = span{name: name, key: key, parent: parent, start: start, end: end}
	return i
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	return t.spans[:min(int(t.n.Load()), len(t.spans))]
}

// selfTimes returns, per span name, the call count and the summed self
// time: each span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]selfTime {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			covered[s.parent] += hi - lo
		}
	}
	out := map[string]selfTime{}
	for i, s := range spans {
		st := out[s.name]
		st.calls++
		st.ns += s.end - s.start - covered[i]
		out[s.name] = st
	}
	return out
}

// selfTime is the self time of every call of one span name.
type selfTime struct {
	calls int64
	ns    int64
}

// perCallUs is the mean self time of one call in µs.
func (s selfTime) perCallUs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls) / 1e3
}

// writeSpans writes spans as CSV (name,key,parent,start_ns,end_ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,key,parent,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.key, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
