package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/dfs"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// This file builds one worker exactly as cmd/trafficd's run does, through
// the same public calls in the same order, with two substitutions: the
// BusReader type is bound to the benchmark's generator spout, and the
// EngineSetup closure also attaches the benchmark's detection listener.
// Each phase is timed from outside, around the calls into its layer.

// setupConfig is what one worker needs besides the feed.
type setupConfig struct {
	xml       []byte
	telemetry bool // attach a registry, as trafficd does unless -telemetry.off
	spout     storm.SpoutFactory
	listener  cep.Listener
	extra     []storm.Option // worker, listener and acking options
	tr        *tracer        // nil when untraced
	installed func()         // called after each EngineSetup; may be nil
}

// setupTimes are the set-up spans of one worker.
type setupTimes struct {
	quadtree, history, batch, partition, load time.Duration
}

// worker is one trafficd process's worth of state, ready to run.
type worker struct {
	rt         *storm.Runtime
	db         *sqlstore.DB
	tel        *telemetry.Registry
	exporter   *telemetry.Exporter
	tree       *quadtree.Tree
	store      *sqlstore.ThresholdStore
	routing    *core.RoutingTable
	rules      []core.Rule
	engineLocs map[string][]map[string]bool
	engines    int
	times      setupTimes
	// installNs sums the EngineSetup calls, which the EsperBolt tasks make
	// from Prepare inside RunContext.
	installNs atomic.Int64
}

// setupWorker mirrors trafficd's run up to the call that starts the
// runtime.
func setupWorker(traces []busdata.Trace, cfg setupConfig) (*worker, error) {
	w := &worker{}
	mark := time.Now()
	lap := func(name string, d *time.Duration) {
		now := time.Now()
		*d = now.Sub(mark)
		if cfg.tr != nil {
			cfg.tr.add(name, -1, -1, int64(mark.Sub(cfg.tr.t0)), int64(now.Sub(cfg.tr.t0)))
		}
		mark = now
	}

	tree, err := buildTree(traces)
	if err != nil {
		return nil, fmt.Errorf("quadtree: %w", err)
	}
	w.tree = tree
	lap(spanSetupQuadtree, &w.times.quadtree)

	if cfg.telemetry {
		w.tel = telemetry.NewRegistry()
	}
	w.db = sqlstore.NewDB()
	w.store, err = sqlstore.NewThresholdStore(w.db)
	if err != nil {
		return nil, err
	}
	manager := &core.DynamicManager{FS: dfs.New(dfs.Options{}), Store: w.store, Telemetry: w.tel}
	if w.tel != nil {
		w.db.SetTelemetry(w.tel)
		w.tel.Register(manager)
	}
	if err := bootstrapHistory(manager, tree, traces); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	lap(spanSetupHistory, &w.times.history)

	if _, err := manager.RunOnce(); err != nil {
		return nil, fmt.Errorf("statistics job: %w", err)
	}
	lap(spanSetupBatch, &w.times.batch)

	deps := &core.Deps{Config: core.TrafficConfig{
		Traces: traces, Tree: tree, DB: w.db, Manager: manager, Telemetry: w.tel,
	}}
	reg := storm.NewRegistry()
	core.RegisterComponents(reg, deps)
	reg.RegisterSpout("busreader", func(map[string]string) (storm.SpoutFactory, error) {
		return cfg.spout, nil
	})
	parsed, err := storm.ParseXML(cfg.xml)
	if err != nil {
		return nil, err
	}
	w.engines = 1
	for _, b := range parsed.Bolts {
		if b.Type == "esper" && b.Tasks > 0 {
			w.engines = b.Tasks
		}
	}
	for i, xr := range parsed.Rules {
		name := xr.Name
		if name == "" {
			name = fmt.Sprintf("rule-%d", i+1)
		}
		r, err := core.RuleFromDef(storm.RuleDef{
			Name: name, Attribute: xr.Attribute, Location: xr.Location,
			Window: xr.Window, Sensitivity: xr.Sensitivity,
		})
		if err != nil {
			return nil, err
		}
		if r.Sensitivity == 0 {
			r.Sensitivity = 1 // trafficd's -s default
		}
		w.rules = append(w.rules, r)
	}
	if len(w.rules) == 0 {
		return nil, fmt.Errorf("topology XML declares no template rules")
	}
	w.routing, w.engineLocs, err = buildRouting(tree, traces, w.rules, w.engines)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	deps.Config.Routing = w.routing
	lap(spanSetupPartition, &w.times.partition)

	deps.Config.EngineSetup = func(task int, eng *cep.Engine) ([]*core.InstalledRule, error) {
		start := time.Now()
		installs, err := w.engineSetup(task, eng, cfg.listener)
		end := time.Now()
		w.installNs.Add(int64(end.Sub(start)))
		if cfg.tr != nil {
			cfg.tr.add(spanSetupInstall, task, -1, int64(start.Sub(cfg.tr.t0)), int64(end.Sub(cfg.tr.t0)))
		}
		if cfg.installed != nil {
			cfg.installed()
		}
		return installs, err
	}
	topo, _, err := storm.LoadXML(cfg.xml, reg)
	if err != nil {
		return nil, err
	}
	opts := append([]storm.Option{
		storm.WithNodes(3),
		storm.WithMonitorInterval(40 * time.Second),
		storm.WithTelemetry(w.tel),
		storm.WithFailurePolicy(storm.FailFast),
		storm.WithBatchSize(64),
		storm.WithBatchTimeout(time.Millisecond),
	}, cfg.extra...)
	w.rt, err = storm.New(topo, opts...)
	if err != nil {
		return nil, err
	}
	if w.tel != nil {
		w.exporter = telemetry.NewExporter(w.tel, io.Discard, 5*time.Second)
	}
	lap(spanSetupLoad, &w.times.load)
	return w, nil
}

// engineSetup is trafficd's EngineSetup: the task's share of every rule,
// installed with the threshold-stream strategy. A non-nil listener is
// attached to every installation, ahead of the EsperBolt's own.
func (w *worker) engineSetup(task int, eng *cep.Engine, l cep.Listener) ([]*core.InstalledRule, error) {
	var installs []*core.InstalledRule
	for _, r := range w.rules {
		locs := w.engineLocs[r.Name][task]
		if len(locs) == 0 {
			continue
		}
		inst, err := core.InstallRule(eng, r, core.InstallOptions{
			Strategy: core.StrategyStream, Store: w.store, Locations: locs,
		})
		if err != nil {
			return nil, err
		}
		if l != nil {
			inst.AddListener(l)
		}
		installs = append(installs, inst)
	}
	return installs, nil
}

// buildTree is trafficd's: a quadtree seeded with a sample of the feed's
// positions.
func buildTree(traces []busdata.Trace) (*quadtree.Tree, error) {
	var seeds []geo.Point
	step := len(traces)/512 + 1
	for i := 0; i < len(traces); i += step {
		seeds = append(seeds, traces[i].Pos)
	}
	return quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 8, MaxDepth: 8})
}

// historyRecord is the batch-layer record trafficd bootstraps from a trace.
func historyRecord(tr busdata.Trace, e busdata.Enriched, path []*quadtree.Node) core.HistoryRecord {
	areas := make([]string, len(path))
	for i, n := range path {
		areas[i] = string(n.ID)
	}
	return core.HistoryRecord{
		Hour: tr.Hour(), Day: busdata.DayTypeOf(tr.Timestamp),
		StopID: tr.BusStop, Areas: areas,
		Delay: tr.Delay, ActualDelay: e.ActualDelay, Speed: e.SpeedKmh,
		Congestion: tr.Congestion,
	}
}

// bootstrapHistory is trafficd's: the feed enriched once into history.
func bootstrapHistory(m *core.DynamicManager, tree *quadtree.Tree, traces []busdata.Trace) error {
	pre := busdata.NewPreprocessor()
	for _, tr := range traces {
		e := pre.Process(tr)
		if err := m.AppendHistory(historyRecord(tr, e, tree.Path(tr.Pos))); err != nil {
			return err
		}
	}
	return nil
}

// buildRouting is trafficd's: Algorithm 1 over location rates estimated
// from the feed, giving the splitter's table and each engine's locations.
func buildRouting(tree *quadtree.Tree, traces []busdata.Trace, rules []core.Rule, engines int) (*core.RoutingTable, map[string][]map[string]bool, error) {
	est := map[string]*core.RateEstimator{}
	fieldOf := map[string]string{}
	for _, r := range rules {
		fieldOf[r.Name] = r.LocationField()
		if _, ok := est[r.LocationField()]; !ok {
			est[r.LocationField()] = core.NewRateEstimator(nil, 1)
		}
	}
	for _, tr := range traces {
		path := tree.Path(tr.Pos)
		for field, e := range est {
			switch {
			case field == "stopId":
				e.Observe(tr.BusStop)
			case field == "leafArea":
				if len(path) > 0 {
					e.Observe(string(path[len(path)-1].ID))
				}
			default:
				var layer int
				if _, err := fmt.Sscanf(field, "layer%dArea", &layer); err == nil && layer < len(path) {
					e.Observe(string(path[layer].ID))
				}
			}
		}
	}
	routing := core.NewRoutingTable(core.RouteByLocation, engines)
	engineLocs := make(map[string][]map[string]bool, len(rules))
	allTasks := make([]int, engines)
	for i := range allTasks {
		allTasks[i] = i
	}
	partitions := map[string]*core.Partition{}
	for _, r := range rules {
		field := fieldOf[r.Name]
		part, ok := partitions[field]
		if !ok {
			rates := est[field].Snapshot()
			if len(rates) == 0 {
				return nil, nil, fmt.Errorf("no observed locations for field %s", field)
			}
			var err error
			if part, err = core.PartitionRegions(rates, engines); err != nil {
				return nil, nil, err
			}
			partitions[field] = part
			if err := routing.AddPartition(field, part, allTasks); err != nil {
				return nil, nil, err
			}
		}
		perEngine := make([]map[string]bool, engines)
		for e := 0; e < engines; e++ {
			perEngine[e] = make(map[string]bool)
			for _, reg := range part.Engines[e] {
				perEngine[e][reg.Location] = true
			}
		}
		engineLocs[r.Name] = perEngine
	}
	return routing, engineLocs, nil
}
