package main

import (
	"fmt"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/dfs"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
)

// reference is the single-threaded, in-order replay of the feed through
// the layers the topology's bolts call, one trace at a time. It is the
// detection reference for the output checks and, traced, the per-layer
// self-time source and the single-thread baseline.
type reference struct {
	events        int64   // engine events: Σ fan-out
	perEngine     []int64 // engine events per EsperBolt task
	detections    int64
	misattributed int64 // firings whose bd row is not the trace just sent
}

// runReference replays traces through a fresh copy of the worker's layers:
// its quadtree, thresholds and routing, with new engines, history and
// detections table. Each call is a span keyed by trace index when tr is
// non-nil.
func runReference(w *worker, traces []busdata.Trace, tr *tracer) (*reference, error) {
	ref := &reference{perEngine: make([]int64, w.engines)}
	manager := &core.DynamicManager{FS: dfs.New(dfs.Options{}), Store: w.store}
	db := sqlstore.NewDB()
	if err := core.EnsureEventsTable(db); err != nil {
		return nil, err
	}
	var (
		cur   traceKey
		fired []sqlstore.Row
		task  int
	)
	listener := func(st *cep.Statement, outs []cep.Output) {
		for _, o := range outs {
			if k, ok := bdKey(o); !ok || k != cur {
				ref.misattributed++
			}
			fired = append(fired, sqlstore.Row{
				"rule": st.Name, "location": o.Fields["location"],
				"observed": o.Fields["observed"], "threshold": o.Fields["threshold"],
				"engine": float64(task),
			})
		}
	}
	engines := make([]*cep.Engine, w.engines)
	for i := range engines {
		engines[i] = cep.New()
		if _, err := w.engineSetup(i, engines[i], listener); err != nil {
			return nil, fmt.Errorf("reference engine %d: %w", i, err)
		}
	}

	pre := busdata.NewPreprocessor()
	// call times f as a span of the current trace when tracing.
	var root int
	call := func(name string, key int, f func()) {
		if tr == nil {
			f()
			return
		}
		start := tr.now()
		f()
		tr.add(name, key, root, start, tr.now())
	}
	for i := range traces {
		t := traces[i]
		if tr != nil {
			root = tr.add(spanRefTrace, i, -1, tr.now(), 0)
		}
		cur = traceKey{t.VehicleID, t.Timestamp.Unix()}

		// PreProcess.
		var e busdata.Enriched
		call(spanPreprocess, i, func() { e = pre.Process(t) })
		vals := t.FillValues(make(map[string]any, 24))
		vals["speed"], vals["actualDelay"], vals["heading"] = e.SpeedKmh, e.ActualDelay, e.Heading

		// AreaTracker.
		var path []*quadtree.Node
		call(spanPath, i, func() {
			path = w.tree.Path(geo.Point{Lat: vals["lat"].(float64), Lon: vals["lon"].(float64)})
		})
		if len(path) > 0 {
			areas := make([]string, len(path))
			for l, n := range path {
				areas[l] = string(n.ID)
				vals[fmt.Sprintf("layer%dArea", l)] = string(n.ID)
			}
			vals["leafArea"] = string(path[len(path)-1].ID)
			vals["areaPath"] = areas
		}

		// BusStopsTracker (no DENCLUE stops, as in trafficd).
		vals["stopId"] = t.BusStop
		rec := historyRecord(t, e, path)
		var err error
		call(spanAppend, i, func() { err = manager.AppendHistory(rec) })
		if err != nil {
			return nil, err
		}

		// Splitter.
		var tasks []int
		call(spanRoute, i, func() { tasks = w.routing.EnginesFor(vals) })
		if len(tasks) == 0 {
			return nil, fmt.Errorf("reference: trace %d is unroutable", i)
		}

		// EsperBolt tasks, then EventsStorer.
		ts := time.Unix(t.Timestamp.Unix(), 0).UTC()
		fired = fired[:0]
		for _, task = range tasks {
			fields := make(map[string]cep.Value, len(vals))
			for k, v := range vals {
				fields[k] = v
			}
			call(spanSendEvent, i, func() { err = engines[task].SendEventAt(core.BusStream, ts, fields) })
			if err != nil {
				return nil, err
			}
			ref.perEngine[task]++
			ref.events++
		}
		for _, row := range fired {
			call(spanInsert, i, func() { err = db.Insert(core.EventsTable, row) })
			if err != nil {
				return nil, err
			}
			ref.detections++
		}
		if tr != nil && root >= 0 {
			tr.spans[root].end = tr.now()
		}
	}
	if n := db.Count(core.EventsTable); int64(n) != ref.detections {
		return nil, fmt.Errorf("reference stored %d detections, fired %d", n, ref.detections)
	}
	return ref, nil
}

// bdKey reads the (vehicleId, ts) of a firing's triggering bus event: the
// Listing 1 statement's unidirectional last-event item, aliased bd.
func bdKey(o cep.Output) (traceKey, bool) {
	ev := o.Row["bd"]
	if ev == nil {
		return traceKey{}, false
	}
	vid, ok1 := ev.Fields["vehicleId"].(string)
	ts, ok2 := cep.Numeric(ev.Fields["ts"])
	return traceKey{vid, int64(ts)}, ok1 && ok2
}
