package core

import (
	"errors"
	"fmt"
	"math"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
)

// errNoThresholds marks an installation (or threshold-stream load) that
// matched no stored thresholds for its location set. The live migrator
// treats it as benign — a location with no thresholds cannot fire — while
// direct InstallRule callers still see it as a hard error.
var errNoThresholds = errors.New("no thresholds matched")

// ThresholdStrategy selects how a rule obtains its dynamic thresholds
// (§4.3.1). The paper evaluates all four in Figure 10 and adopts
// StrategyStream.
type ThresholdStrategy int

// Threshold retrieval strategies.
const (
	// StrategyStatic uses a fixed literal threshold: the "Optimal"
	// baseline with no retrieval overhead.
	StrategyStatic ThresholdStrategy = iota
	// StrategyJoinDB queries the storage medium for every incoming tuple
	// ("Join with Database").
	StrategyJoinDB
	// StrategyManyRules pre-creates one statement per threshold
	// combination ("Create Multiple Rules").
	StrategyManyRules
	// StrategyStream loads the thresholds into a dedicated Esper stream
	// that the rule joins with ("Add the Thresholds in an Esper stream").
	StrategyStream
)

func (s ThresholdStrategy) String() string {
	switch s {
	case StrategyStatic:
		return "static"
	case StrategyJoinDB:
		return "join-with-db"
	case StrategyManyRules:
		return "many-rules"
	case StrategyStream:
		return "threshold-stream"
	}
	return fmt.Sprintf("ThresholdStrategy(%d)", int(s))
}

// InstallOptions configure InstallRule.
type InstallOptions struct {
	Strategy ThresholdStrategy
	// Store supplies thresholds; required for every strategy except
	// StrategyStatic.
	Store *sqlstore.ThresholdStore
	// StaticThreshold is the literal for StrategyStatic.
	StaticThreshold float64
	// Locations restricts the rule to a subset of locations (the
	// engine's Algorithm 1 share); nil means all locations in the store.
	// Under every strategy, the rule's statements then see only the bus
	// events of these locations (a key filter on Rule.LocationField).
	Locations map[string]bool
	// Listener receives the rule's firings.
	Listener cep.Listener
}

// InstalledRule tracks what InstallRule created in an engine so it can be
// refreshed or removed later.
type InstalledRule struct {
	Rule       Rule
	Options    InstallOptions
	Statements []string
	engine     *cep.Engine
	// listeners are re-attached to the fresh statements on every
	// Refresh (unlike Options.Listener, which install wires itself).
	listeners []cep.Listener
}

// AddListener attaches a listener to every current statement of the rule
// and remembers it so Refresh re-attaches it to the replacement statements.
func (inst *InstalledRule) AddListener(l cep.Listener) {
	inst.listeners = append(inst.listeners, l)
	for _, name := range inst.Statements {
		if st, ok := inst.engine.Statement(name); ok {
			st.AddListener(l)
		}
	}
}

// InstallRule installs one template rule into an engine under the chosen
// threshold retrieval strategy. It returns a handle for refreshes.
func InstallRule(eng *cep.Engine, r Rule, opts InstallOptions) (*InstalledRule, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if opts.Strategy != StrategyStatic && opts.Store == nil {
		return nil, fmt.Errorf("core: strategy %v requires a threshold store", opts.Strategy)
	}
	inst := &InstalledRule{Rule: r, Options: opts, engine: eng}
	if err := inst.install(); err != nil {
		return nil, err
	}
	return inst, nil
}

func (inst *InstalledRule) install() error {
	eng, r, opts := inst.engine, inst.Rule, inst.Options
	add := func(name, epl string) error {
		st, err := eng.AddFilteredStatement(name, epl, BusStream, r.LocationField(), opts.Locations)
		if err != nil {
			return err
		}
		if opts.Listener != nil {
			st.AddListener(opts.Listener)
		}
		for _, l := range inst.listeners {
			st.AddListener(l)
		}
		inst.Statements = append(inst.Statements, name)
		return nil
	}

	switch opts.Strategy {
	case StrategyStatic:
		return add(r.Name, r.StaticEPL(opts.StaticThreshold))

	case StrategyJoinDB:
		registerDBThreshold(eng, opts.Store)
		return add(r.Name, r.JoinDBEPL())

	case StrategyManyRules:
		ths, err := opts.Store.Thresholds(r.Attribute, r.Sensitivity)
		if err != nil {
			return err
		}
		n := 0
		for _, th := range ths {
			if opts.Locations != nil && !opts.Locations[th.Location] {
				continue
			}
			name := fmt.Sprintf("%s#%s#%d#%s", r.Name, th.Location, th.Hour, th.Day)
			if err := add(name, r.PerLocationEPL(th.Location, th.Hour, th.Day, th.Value)); err != nil {
				return err
			}
			n++
		}
		if n == 0 {
			return fmt.Errorf("core: rule %q: %w (many-rules strategy)", r.Name, errNoThresholds)
		}
		return nil

	case StrategyStream:
		if err := add(r.Name, r.StreamEPL()); err != nil {
			return err
		}
		return loadThresholdStream(eng, r, opts.Store, opts.Locations)
	}
	return fmt.Errorf("core: unknown strategy %v", opts.Strategy)
}

// loadThresholdStream pushes the rule's thresholds into its Esper stream.
func loadThresholdStream(eng *cep.Engine, r Rule, store *sqlstore.ThresholdStore, locations map[string]bool) error {
	ths, err := store.Thresholds(r.Attribute, r.Sensitivity)
	if err != nil {
		return err
	}
	n := 0
	for _, th := range ths {
		if locations != nil && !locations[th.Location] {
			continue
		}
		err := eng.SendEvent(r.ThresholdStream(), map[string]cep.Value{
			"location": th.Location,
			"hour":     float64(th.Hour),
			"day":      th.Day.String(),
			"value":    th.Value,
		})
		if err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("core: rule %q: %w (stream strategy)", r.Name, errNoThresholds)
	}
	return nil
}

// registerDBThreshold installs the db_threshold scalar function backed by
// the store: db_threshold(attribute, location, hour, day, s). Missing
// thresholds resolve to +Inf so the rule never fires for unknown locations.
func registerDBThreshold(eng *cep.Engine, store *sqlstore.ThresholdStore) {
	eng.RegisterFunction("db_threshold", func(args []cep.Value) (cep.Value, error) {
		if len(args) != 5 {
			return nil, fmt.Errorf("core: db_threshold takes 5 arguments, got %d", len(args))
		}
		attr, _ := args[0].(string)
		loc, _ := args[1].(string)
		hour, ok := cep.Numeric(args[2])
		if !ok {
			return nil, fmt.Errorf("core: db_threshold hour %v is not numeric", args[2])
		}
		dayStr, _ := args[3].(string)
		s, ok := cep.Numeric(args[4])
		if !ok {
			return nil, fmt.Errorf("core: db_threshold s %v is not numeric", args[4])
		}
		day := busdata.Weekday
		if dayStr == busdata.Weekend.String() {
			day = busdata.Weekend
		}
		v, found, err := store.Lookup(attr, loc, int(hour), day, s)
		if err != nil {
			return nil, err
		}
		if !found {
			return math.Inf(1), nil
		}
		return v, nil
	})
}

// filterKeys points the key filter of every statement of the rule at its
// current location set. The migrator calls it whenever it changes
// Options.Locations.
func (inst *InstalledRule) filterKeys() {
	for _, name := range inst.Statements {
		if st, ok := inst.engine.Statement(name); ok {
			st.SetKeyFilter(BusStream, inst.Rule.LocationField(), inst.Options.Locations)
		}
	}
}

// Refresh re-installs the rule with freshly retrieved thresholds — the
// dynamic-rule update step after each batch-layer run. For StrategyStatic
// and StrategyJoinDB nothing needs rebuilding (the former has no dynamic
// thresholds; the latter reads the store on every tuple).
func (inst *InstalledRule) Refresh() error {
	switch inst.Options.Strategy {
	case StrategyStatic, StrategyJoinDB:
		return nil
	}
	for _, name := range inst.Statements {
		inst.engine.RemoveStatement(name)
	}
	inst.Statements = nil
	return inst.install()
}

// Remove drops every statement the rule installed.
func (inst *InstalledRule) Remove() {
	for _, name := range inst.Statements {
		inst.engine.RemoveStatement(name)
	}
	inst.Statements = nil
}
