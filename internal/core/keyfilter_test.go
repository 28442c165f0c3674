package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/telemetry"
)

// trafficdRules are the four template rules of cmd/trafficd/topology.xml.
var trafficdRules = []Rule{
	{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 10, Sensitivity: 1},
	{Name: "leafSpeed", Attribute: busdata.AttrSpeed, Kind: QuadtreeLeaves, Window: 100, Sensitivity: 1},
	{Name: "stopDelay", Attribute: busdata.AttrDelay, Kind: BusStops, Window: 10, Sensitivity: 1},
	{Name: "stopActual", Attribute: busdata.AttrActualDelay, Kind: BusStops, Window: 10, Sensitivity: 2},
}

// detectionLog records firings as "engine|rule|location|observed|threshold".
type detectionLog map[string]int

func (d detectionLog) listener(engine int) cep.Listener {
	return func(st *cep.Statement, outs []cep.Output) {
		for _, o := range outs {
			d[fmt.Sprintf("%d|%s|%v|%v|%v", engine, st.Name,
				o.Fields["location"], o.Fields["observed"], o.Fields["threshold"])]++
		}
	}
}

// firedFor counts the firings of rule for location, on any engine.
func (d detectionLog) firedFor(rule, location string) int {
	n := 0
	for k, c := range d {
		if f := strings.SplitN(k, "|", 4); f[1] == rule && f[2] == location {
			n += c
		}
	}
	return n
}

// lowThresholds stores a threshold no observation can miss for every
// (attribute, location), so each admitted event of a window-1 rule fires.
func lowThresholds(t *testing.T, attrs []string, locs ...string) *sqlstore.ThresholdStore {
	t.Helper()
	store, err := sqlstore.NewThresholdStore(sqlstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	var rows []sqlstore.StatRow
	for _, a := range attrs {
		for _, l := range locs {
			for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
				rows = append(rows, sqlstore.StatRow{Attribute: a, Location: l, Hour: 8, Day: day, Mean: -1e6})
			}
		}
	}
	if err := store.Put(rows); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestRebalanceReleasedLocationStopsFiring pins what Locations means once
// routing uses two location fields: an engine must not fire a rule for a
// location it does not own, even when a trace reaches it for another
// field's location.
func TestRebalanceReleasedLocationStopsFiring(t *testing.T) {
	trace := map[string]cep.Value{
		"leafArea": "L1", "stopId": "S1", "hour": 8.0,
		"day": busdata.Weekday.String(), "delay": 5.0,
	}

	// Engine 0 serves leafDelay {L1, L2} and stopDelay {S1}; the migrator
	// moves L1 to engine 1. The trace (L1, S1) then reaches engine 0 for
	// its stop and engine 1 for its leaf: leafDelay must fire for L1 once,
	// on engine 1.
	t.Run("migrated", func(t *testing.T) {
		leaf := Rule{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 1, Sensitivity: 1}
		stop := Rule{Name: "stopDelay", Attribute: busdata.AttrDelay, Kind: BusStops, Window: 1, Sensitivity: 1}
		store := lowThresholds(t, []string{busdata.AttrDelay}, "L1", "L2", "S1")
		fired := detectionLog{}
		mig := &RuleMigrator{Rules: []Rule{leaf, stop}, Store: store}
		engines := []*cep.Engine{cep.New(), cep.New()}
		var installs []*InstalledRule
		for _, spec := range []struct {
			r    Rule
			locs map[string]bool
		}{{leaf, map[string]bool{"L1": true, "L2": true}}, {stop, map[string]bool{"S1": true}}} {
			inst, err := InstallRule(engines[0], spec.r, InstallOptions{Strategy: StrategyStream, Store: store, Locations: spec.locs})
			if err != nil {
				t.Fatal(err)
			}
			inst.AddListener(fired.listener(0))
			installs = append(installs, inst)
		}
		mig.RegisterEngine(0, engines[0], installs, nil)
		mig.RegisterEngine(1, engines[1], nil, fired.listener(1))
		if err := mig.PrepareTarget(1, "leafArea", []string{"L1"}); err != nil {
			t.Fatal(err)
		}
		if err := mig.ReleaseSource(0, "leafArea", []string{"L1"}); err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines {
			if err := eng.SendEvent(BusStream, trace); err != nil {
				t.Fatal(err)
			}
		}
		if n := fired.firedFor("leafDelay", "L1"); n != 1 {
			t.Errorf("leafDelay fired %d times for L1, want 1 (detections %v)", n, fired)
		}
		if n := fired.firedFor("stopDelay", "S1"); n != 1 {
			t.Errorf("stopDelay fired %d times for S1, want 1 (detections %v)", n, fired)
		}
	})

	// Strategies without a threshold stream must honour Locations too.
	for _, strategy := range []ThresholdStrategy{StrategyJoinDB, StrategyStatic} {
		t.Run(strategy.String(), func(t *testing.T) {
			r := Rule{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 1, Sensitivity: 1}
			eng := cep.New()
			inst, err := InstallRule(eng, r, InstallOptions{
				Strategy: strategy, Store: lowThresholds(t, []string{busdata.AttrDelay}, "L1", "L2"),
				StaticThreshold: -1e6, Locations: map[string]bool{"L2": true},
			})
			if err != nil {
				t.Fatal(err)
			}
			fired := detectionLog{}
			inst.AddListener(fired.listener(0))
			if err := eng.SendEvent(BusStream, trace); err != nil {
				t.Fatal(err)
			}
			if len(fired) != 0 {
				t.Errorf("rule fired for a location it does not own: %v", fired)
			}
			owned := map[string]cep.Value{}
			for k, v := range trace {
				owned[k] = v
			}
			owned["leafArea"] = "L2"
			if err := eng.SendEvent(BusStream, owned); err != nil {
				t.Fatal(err)
			}
			if n := fired.firedFor("leafDelay", "L2"); n != 1 {
				t.Errorf("leafDelay fired %d times for its own L2, want 1", n)
			}
		})
	}
}

// TestRoutingKeyFilterMatchesUnfiltered feeds a seeded busdata feed through
// trafficd's four rules on four engines, routed by Algorithm 1 partitions
// of both location fields, twice: into engines installed with their
// location sets (key-filtered) and into an unfiltered oracle built from
// the same EPL and thresholds. The detection multisets must be equal, and
// each engine's published filtered count must equal the events the
// routing table sends it for locations a rule there does not own.
func TestRoutingKeyFilterMatchesUnfiltered(t *testing.T) {
	const engines = 4
	cfg := busdata.DefaultConfig()
	cfg.Buses, cfg.Lines, cfg.Seed = 120, 8, 7
	gen, err := busdata.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := gen.Generate(20 * time.Minute)
	var seeds []geo.Point
	for i := 0; i < len(traces); i += len(traces)/512 + 1 {
		seeds = append(seeds, traces[i].Pos)
	}
	tree, err := quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 8, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Enrich every trace as the Figure 8 bolts do, and keep the history
	// the batch layer derives thresholds from.
	pre := busdata.NewPreprocessor()
	payloads := make([]map[string]any, len(traces))
	recs := make([]HistoryRecord, len(traces))
	for i, tr := range traces {
		e := pre.Process(tr)
		v := tr.FillValues(busdata.GetValues())
		v["speed"], v["actualDelay"], v["heading"] = e.SpeedKmh, e.ActualDelay, e.Heading
		var areas []string
		for j, n := range tree.Path(tr.Pos) {
			areas = append(areas, string(n.ID))
			v[layerAreaField(j)] = string(n.ID)
		}
		if len(areas) > 0 {
			v["leafArea"] = areas[len(areas)-1]
		}
		v["stopId"] = tr.BusStop
		payloads[i] = v
		recs[i] = HistoryRecord{
			Hour: tr.Hour(), Day: busdata.DayTypeOf(tr.Timestamp),
			StopID: tr.BusStop, Areas: areas,
			Delay: tr.Delay, ActualDelay: e.ActualDelay, Speed: e.SpeedKmh,
		}
	}
	rows, _, err := RunStatsJob(StatsJobConfig{FS: historyFS(t, recs), InputPaths: []string{"history/traces"}, OutputPath: "batch/stats"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := sqlstore.NewThresholdStore(sqlstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(rows); err != nil {
		t.Fatal(err)
	}

	// Algorithm 1 per location field, rates from the feed, as trafficd.
	routing := NewRoutingTable(RouteByLocation, engines)
	tasks := []int{0, 1, 2, 3}
	owned := map[string][]map[string]bool{} // field → engine → locations
	for _, field := range []string{"leafArea", "stopId"} {
		est := NewRateEstimator(nil, 1)
		for _, v := range payloads {
			if loc, _ := v[field].(string); loc != "" {
				est.Observe(loc)
			}
		}
		part, err := PartitionRegions(est.Snapshot(), engines)
		if err != nil {
			t.Fatal(err)
		}
		if err := routing.AddPartition(field, part, tasks); err != nil {
			t.Fatal(err)
		}
		owned[field] = make([]map[string]bool, engines)
		for e := range owned[field] {
			owned[field][e] = locSet(part, e)
		}
	}

	reg := telemetry.NewRegistry()
	filtered, oracle := detectionLog{}, detectionLog{}
	fEng, oEng := make([]*cep.Engine, engines), make([]*cep.Engine, engines)
	for e := 0; e < engines; e++ {
		fEng[e] = cep.New(cep.WithRegistry(reg), cep.WithName(fmt.Sprintf("cep.engine%d", e)))
		reg.Register(fEng[e])
		oEng[e] = cep.New()
		for _, r := range trafficdRules {
			locs := owned[r.LocationField()][e]
			inst, err := InstallRule(fEng[e], r, InstallOptions{Strategy: StrategyStream, Store: store, Locations: locs})
			if err != nil {
				t.Fatal(err)
			}
			inst.AddListener(filtered.listener(e))
			st, err := oEng[e].AddStatement(r.Name, r.StreamEPL())
			if err != nil {
				t.Fatal(err)
			}
			st.AddListener(oracle.listener(e))
			if err := loadThresholdStream(oEng[e], r, store, locs); err != nil {
				t.Fatal(err)
			}
		}
	}

	var events, want uint64
	wantPerEngine := make([]uint64, engines)
	for _, v := range payloads {
		ts := time.Unix(int64(v["ts"].(float64)), 0).UTC()
		for _, e := range routing.EnginesFor(v) {
			events++
			for _, r := range trafficdRules {
				if loc, _ := v[r.LocationField()].(string); !owned[r.LocationField()][e][loc] {
					want++
					wantPerEngine[e]++
				}
			}
			if err := fEng[e].SendEventAt(BusStream, ts, v); err != nil {
				t.Fatal(err)
			}
			if err := oEng[e].SendEventAt(BusStream, ts, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	if len(oracle) == 0 {
		t.Fatal("oracle produced no detections; the feed exercises nothing")
	}
	keys := make([]string, 0, len(oracle)+len(filtered))
	for k := range oracle {
		keys = append(keys, k)
	}
	for k := range filtered {
		if _, ok := oracle[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if filtered[k] != oracle[k] {
			t.Errorf("detection %s: filtered %d, oracle %d", k, filtered[k], oracle[k])
		}
	}

	snap := reg.Gather()
	var got uint64
	for e := 0; e < engines; e++ {
		var perEngine uint64
		for _, r := range trafficdRules {
			m, ok := snap.Get(fmt.Sprintf("cep.engine%d.stmt.%s.filtered", e, r.Name))
			if !ok {
				t.Fatalf("engine %d publishes no filtered counter for %s", e, r.Name)
			}
			perEngine += uint64(m.Value)
		}
		if perEngine != wantPerEngine[e] {
			t.Errorf("engine %d filtered %d statement events, routing predicts %d", e, perEngine, wantPerEngine[e])
		}
		got += perEngine
	}
	if got != want {
		t.Errorf("filtered %d statement events, routing predicts %d", got, want)
	}
	detections := 0
	for _, n := range oracle {
		detections += n
	}
	t.Logf("%d traces, %d engine events, %d detections; filtered %d of %d statement events (%.3f)",
		len(traces), events, detections, got, events*uint64(len(trafficdRules)),
		float64(got)/float64(events*uint64(len(trafficdRules))))
}

// TestRebalanceStaleReleaseKeepsReturnedLocation moves L from engine 0 to
// engine 1 and back while the post-swap drain keeps timing out, so both
// source releases queue up. When a drain finally succeeds, the release of
// L from engine 0 is stale (the table routes L there again) and must not
// run: L has to keep firing on engine 0, and M on engine 1.
func TestRebalanceStaleReleaseKeepsReturnedLocation(t *testing.T) {
	rule := Rule{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 1, Sensitivity: 1}
	store := lowThresholds(t, []string{busdata.AttrDelay}, "L", "M")
	fired := detectionLog{}
	mig := &RuleMigrator{Rules: []Rule{rule}, Store: store}
	engines := []*cep.Engine{cep.New(), cep.New()}
	for e, loc := range []string{"L", "M"} {
		inst, err := InstallRule(engines[e], rule, InstallOptions{Strategy: StrategyStream, Store: store, Locations: map[string]bool{loc: true}})
		if err != nil {
			t.Fatal(err)
		}
		inst.AddListener(fired.listener(e))
		mig.RegisterEngine(e, engines[e], []*InstalledRule{inst}, fired.listener(e))
	}
	table := NewRoutingTable(RouteByLocation, 2)
	if err := table.AddPartition("leafArea", &Partition{
		Engines:    [][]RegionRate{{{Location: "L", Rate: 1}}, {{Location: "M", Rate: 1}}},
		Rate:       []float64{1, 1},
		ByLocation: map[string]int{"L": 0, "M": 1},
	}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	inFlight := 1 // a tuple that never drains, until the last cycle
	reb, err := NewRebalancer(RebalancerConfig{
		Routing: table, Alpha: 1, Migrator: mig,
		InFlight: func() int { return inFlight }, DrainTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 1 puts the busier location on engine 0.
	cycle := func(hot string, wantL int) {
		t.Helper()
		for _, loc := range []string{"L", "M"} {
			n := 1
			if loc == hot {
				n = 100
			}
			for i := 0; i < n; i++ {
				reb.Observe(map[string]any{"leafArea": loc})
			}
		}
		if _, err := reb.RebalanceOnce(); err != nil {
			t.Fatal(err)
		}
		if got := reb.Table().EnginesFor(map[string]any{"leafArea": "L"}); len(got) != 1 || got[0] != wantL {
			t.Fatalf("L routed to %v, want [%d]", got, wantL)
		}
	}
	cycle("M", 1) // L 0→1, M 1→0; releases deferred
	cycle("L", 0) // L 1→0, M 0→1; the opening drain fails too
	if rep := reb.LastReport(); rep.ReleasesDeferred != 2 {
		t.Fatalf("cycle 2 deferred %d releases, want 2", rep.ReleasesDeferred)
	}
	inFlight = 0
	cycle("L", 0) // the opening drain succeeds and runs the queued releases
	reb.Stop()

	for e, loc := range []string{"L", "M"} {
		trace := map[string]cep.Value{
			"leafArea": loc, "hour": 8.0, "day": busdata.Weekday.String(), "delay": 5.0,
		}
		if err := engines[e].SendEvent(BusStream, trace); err != nil {
			t.Fatal(err)
		}
		if n := fired.firedFor("leafDelay", loc); n != 1 {
			t.Errorf("leafDelay fired %d times for %s on its owner engine %d, want 1 (detections %v)", n, loc, e, fired)
		}
	}
}
