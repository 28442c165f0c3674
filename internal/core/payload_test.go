package core

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficcep/internal/cep"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/storm"
)

// spoutFields is the BusReader payload (busdata.Trace.FillValues).
var spoutFields = []string{
	"ts", "hour", "day", "lineId", "direction", "lat", "lon", "delay",
	"congestion", "busStop", "vehicleId",
}

// enrichedFields lists the fields the Figure 8 enrichment chain defines for
// a trace at pos: the spout's, PreProcess's three, AreaTracker's one per
// quadtree layer on pos's path plus the leaf and the path, and
// BusStopsTracker's stop.
func enrichedFields(tree *quadtree.Tree, pos geo.Point) []string {
	keys := append([]string{"speed", "actualDelay", "heading", "stopId"}, spoutFields...)
	if path := tree.Path(pos); len(path) > 0 {
		for i := range path {
			keys = append(keys, layerAreaField(i))
		}
		keys = append(keys, "leafArea", "areaPath")
	}
	sort.Strings(keys)
	return keys
}

// payloadProbe installs a select-all statement on every engine and checks
// that each event an engine keeps carries exactly the enriched fields.
type payloadProbe struct {
	t    *testing.T
	tree *quadtree.Tree

	mu     sync.Mutex
	events int
	bad    int
}

func (p *payloadProbe) setup(_ int, eng *cep.Engine) ([]*InstalledRule, error) {
	st, err := eng.AddStatement("probe", "SELECT * FROM "+BusStream+".std:lastevent() AS e")
	if err != nil {
		return nil, err
	}
	st.AddListener(func(_ *cep.Statement, outs []cep.Output) {
		for _, o := range outs {
			for _, ev := range o.Row {
				p.check(ev.Fields)
			}
		}
	})
	return nil, nil
}

func (p *payloadProbe) check(fields map[string]cep.Value) {
	got := make([]string, 0, len(fields))
	for k := range fields {
		got = append(got, k)
	}
	sort.Strings(got)
	lat, _ := cep.Numeric(fields["lat"])
	lon, _ := cep.Numeric(fields["lon"])
	want := enrichedFields(p.tree, geo.Point{Lat: lat, Lon: lon})
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events++
	if strings.Join(got, ",") != strings.Join(want, ",") {
		if p.bad == 0 {
			p.t.Errorf("engine event fields\n got %v\nwant %v", got, want)
		}
		p.bad++
	}
}

// TestTrafficTopologyPayloadFields pins the payload that reaches the
// engines now that the enrichment bolts write into one shared map: every
// engine event carries exactly the fields the chain defines, nothing lost
// and nothing stale. Two engines under RouteAll share each fanned-out map
// in process; over two loopback workers one of them reads a decoded copy.
func TestTrafficTopologyPayloadFields(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 20, 5)
	const engines = 2
	build := func(p *payloadProbe) *storm.Topology {
		topo, err := BuildTrafficTopology(TrafficConfig{
			Traces: traces, Tree: tree, Engines: engines,
			Routing: NewRoutingTable(RouteAll, engines), EngineSetup: p.setup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	check := func(t *testing.T, p *payloadProbe) {
		if want := engines * len(traces); p.events != want {
			t.Fatalf("engines saw %d events, want %d", p.events, want)
		}
		if p.bad > 0 {
			t.Fatalf("%d of %d engine events carry the wrong fields", p.bad, p.events)
		}
	}

	t.Run("in-process", func(t *testing.T) {
		p := &payloadProbe{t: t, tree: tree}
		rt, err := storm.New(build(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})

	t.Run("loopback-2w", func(t *testing.T) {
		const workers = 2
		p := &payloadProbe{t: t, tree: tree}
		lns := make([]net.Listener, workers)
		peers := make([]string, workers)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[i], peers[i] = ln, ln.Addr().String()
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			rt, err := storm.New(build(p), storm.WithWorker(w, peers), storm.WithListener(lns[w]))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = rt.Run()
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("distributed run did not drain")
		}
		for w, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", w, err)
			}
		}
		check(t, p)
	})
}

// peekBolt reads every field of its input, as any second subscriber to an
// enrichment bolt's input stream would.
type peekBolt struct{}

func (peekBolt) Prepare(storm.TaskContext) error { return nil }
func (peekBolt) Cleanup() error                  { return nil }
func (peekBolt) Execute(t storm.Tuple, _ storm.Collector) error {
	for k, v := range t.Values {
		if v == nil {
			return fmt.Errorf("field %q is nil", k)
		}
	}
	return nil
}

// TestRegisterComponentsRejectsSecondReader: PreProcess writes into the
// BusReader payload, so an XML topology that subscribes another bolt to
// BusReader — or feeds PreProcess by all grouping — must be rejected when
// the runtime is built, naming PreProcess, rather than run with two bolts
// sharing a map one of them writes.
func TestRegisterComponentsRejectsSecondReader(t *testing.T) {
	deps := &Deps{Config: TrafficConfig{
		Traces: genTraces(t, 10, 3), Tree: buildTestTree(t), Routing: NewRoutingTable(RouteAll, 1),
	}}
	reg := storm.NewRegistry()
	RegisterComponents(reg, deps)
	reg.RegisterBolt("peek", func(map[string]string) (storm.BoltFactory, error) {
		return func() storm.Bolt { return peekBolt{} }, nil
	})
	for name, grouping := range map[string]string{
		"second subscriber": `<grouping type="fields" source="BusReader" fields="vehicleId"/></bolt>
	  <bolt id="Peek" type="peek"><grouping source="BusReader"/>`,
		"all grouping": `<grouping type="all" source="BusReader"/>`,
	} {
		t.Run(name, func(t *testing.T) {
			xml := `<topology name="t">
	  <spout id="BusReader" type="busreader"/>
	  <bolt id="PreProcess" type="preprocess" executors="2" tasks="2">` + grouping + `</bolt>
	  <bolt id="AreaTracker" type="areatracker"><grouping source="PreProcess"/></bolt>
	</topology>`
			topo, _, err := storm.LoadXML([]byte(xml), reg)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := storm.New(topo)
			if err == nil {
				runErr := rt.Run()
				t.Fatalf("topology accepted (run error: %v)", runErr)
			}
			if !strings.Contains(err.Error(), `"PreProcess"`) {
				t.Fatalf("error does not name PreProcess: %v", err)
			}
		})
	}
}
