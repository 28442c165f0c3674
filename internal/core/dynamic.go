package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"trafficcep/internal/busdata"
	"trafficcep/internal/dfs"
	"trafficcep/internal/mapreduce"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/telemetry"
)

// HistoryRecord is one pre-processed trace persisted to the distributed
// file system for the batch layer (§3.2: "The pre-processed data before
// being forwarded to the Esper engines, are stored to a distributed
// filesystem").
type HistoryRecord struct {
	Hour        int
	Day         busdata.DayType
	StopID      string
	Areas       []string // quadtree path, root first
	Delay       float64
	ActualDelay float64
	Speed       float64
	Congestion  bool
}

// MarshalLine renders the record as one history CSV line.
func (h HistoryRecord) MarshalLine() string { return string(h.appendLine(nil)) }

// appendLine appends the record's history CSV line, without a newline, to
// dst: hour, day, stop, the '|'-joined area path, delay, actual delay and
// speed in shortest 'g' form, and the congestion flag as 0 or 1.
func (h HistoryRecord) appendLine(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(h.Hour), 10)
	dst = append(dst, ',')
	dst = append(dst, h.Day.String()...)
	dst = append(dst, ',')
	dst = append(dst, h.StopID...)
	dst = append(dst, ',')
	for i, a := range h.Areas {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, a...)
	}
	for _, f := range [...]float64{h.Delay, h.ActualDelay, h.Speed} {
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	if h.Congestion {
		return append(dst, ",1"...)
	}
	return append(dst, ",0"...)
}

// ParseHistoryLine parses one history CSV line.
func ParseHistoryLine(line string) (HistoryRecord, error) {
	parts := strings.Split(line, ",")
	if len(parts) != 8 {
		return HistoryRecord{}, fmt.Errorf("core: history line has %d fields, want 8", len(parts))
	}
	hour, err := strconv.Atoi(parts[0])
	if err != nil {
		return HistoryRecord{}, fmt.Errorf("core: bad hour %q: %w", parts[0], err)
	}
	day := busdata.Weekday
	if parts[1] == busdata.Weekend.String() {
		day = busdata.Weekend
	}
	delay, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return HistoryRecord{}, fmt.Errorf("core: bad delay %q: %w", parts[4], err)
	}
	actual, err := strconv.ParseFloat(parts[5], 64)
	if err != nil {
		return HistoryRecord{}, fmt.Errorf("core: bad actualDelay %q: %w", parts[5], err)
	}
	speed, err := strconv.ParseFloat(parts[6], 64)
	if err != nil {
		return HistoryRecord{}, fmt.Errorf("core: bad speed %q: %w", parts[6], err)
	}
	var areas []string
	if parts[3] != "" {
		areas = strings.Split(parts[3], "|")
	}
	return HistoryRecord{
		Hour: hour, Day: day, StopID: parts[2], Areas: areas,
		Delay: delay, ActualDelay: actual, Speed: speed, Congestion: parts[7] == "1",
	}, nil
}

const statsKeySep = "\x1f"

// moments is the statistics job's intermediate value: the count, mean and
// sum of squared deviations from the mean (M2) of a set of values.
type moments struct {
	n    int64
	mean float64
	m2   float64
}

// mergeMoments combines the moments of two disjoint sets with Chan et al.'s
// parallel update (Welford's update when b is one value). Unlike
// accumulating Σx and Σx², it does not cancel catastrophically when the
// spread is small next to the mean.
func mergeMoments(a, b moments) moments {
	n := a.n + b.n
	if n == 0 {
		return moments{}
	}
	d := b.mean - a.mean
	fb := float64(b.n) / float64(n)
	return moments{n: n, mean: a.mean + d*fb, m2: a.m2 + b.m2 + d*d*float64(a.n)*fb}
}

// statsMapper emits (attribute, location, hour, day) → value for every
// monitorable attribute and every spatial granularity of the record: the
// bus stop and each quadtree area on the record's path.
func statsMapper(_ int64, line string, emit func(string, moments)) error {
	rec, err := ParseHistoryLine(line)
	if err != nil {
		return err
	}
	congestion := 0.0
	if rec.Congestion {
		congestion = 1
	}
	values := [...]struct {
		attr string
		v    float64
	}{
		{busdata.AttrDelay, rec.Delay}, {busdata.AttrActualDelay, rec.ActualDelay},
		{busdata.AttrSpeed, rec.Speed}, {busdata.AttrCongestion, congestion},
	}
	suffix := statsKeySep + strconv.Itoa(rec.Hour) + statsKeySep + rec.Day.String()
	emitAt := func(loc string) {
		locKey := statsKeySep + loc + suffix
		for _, a := range values {
			emit(a.attr+locKey, moments{n: 1, mean: a.v})
		}
	}
	if rec.StopID != "" {
		emitAt(rec.StopID)
	}
	for _, area := range rec.Areas {
		emitAt(area)
	}
	return nil
}

// statsReducer renders a key's mean, sample standard deviation and count
// (§4.1.3: "The reducers aggregate the parameters' values for the different
// spatial locations and then compute the mean and the standard deviation").
func statsReducer(dst []byte, _ string, m moments) ([]byte, error) {
	stdv := 0.0
	if m.n > 1 && m.m2 > 0 {
		stdv = math.Sqrt(m.m2 / float64(m.n-1))
	}
	dst = strconv.AppendFloat(dst, m.mean, 'g', -1, 64)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, stdv, 'g', -1, 64)
	dst = append(dst, ',')
	return strconv.AppendInt(dst, m.n, 10), nil
}

// StatsJobConfig configures one statistics batch run.
type StatsJobConfig struct {
	FS          *dfs.FS
	InputPaths  []string
	OutputPath  string // defaults to "batch/stats"
	NumReducers int    // defaults to 4
	// Telemetry receives the job's phase timings (may be nil).
	Telemetry *telemetry.Registry
}

// RunStatsJob executes the Hadoop-style statistics job over historical data
// and returns the per-(attribute, location, hour, day) statistics.
func RunStatsJob(cfg StatsJobConfig) ([]sqlstore.StatRow, *mapreduce.Result, error) {
	if cfg.OutputPath == "" {
		cfg.OutputPath = "batch/stats"
	}
	if cfg.NumReducers <= 0 {
		cfg.NumReducers = 4
	}
	res, err := mapreduce.Run(mapreduce.Config[moments]{
		Name:        "traffic-statistics",
		FS:          cfg.FS,
		InputPaths:  cfg.InputPaths,
		OutputPath:  cfg.OutputPath,
		Map:         statsMapper,
		Combine:     mergeMoments,
		Reduce:      statsReducer,
		NumReducers: cfg.NumReducers,
		Telemetry:   cfg.Telemetry,
	})
	if err != nil {
		return nil, nil, err
	}
	kvs, err := mapreduce.ReadOutput(cfg.FS, cfg.OutputPath)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]sqlstore.StatRow, 0, len(kvs))
	for _, kv := range kvs {
		row, err := parseStatKV(kv)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
	}
	return rows, res, nil
}

func parseStatKV(kv mapreduce.KeyValue) (sqlstore.StatRow, error) {
	kparts := strings.Split(kv.Key, statsKeySep)
	if len(kparts) != 4 {
		return sqlstore.StatRow{}, fmt.Errorf("core: malformed stats key %q", kv.Key)
	}
	hour, err := strconv.Atoi(kparts[2])
	if err != nil {
		return sqlstore.StatRow{}, fmt.Errorf("core: bad hour in stats key %q: %w", kv.Key, err)
	}
	day := busdata.Weekday
	if kparts[3] == busdata.Weekend.String() {
		day = busdata.Weekend
	}
	vparts := strings.Split(kv.Value, ",")
	if len(vparts) != 3 {
		return sqlstore.StatRow{}, fmt.Errorf("core: malformed stats value %q", kv.Value)
	}
	mean, err := strconv.ParseFloat(vparts[0], 64)
	if err != nil {
		return sqlstore.StatRow{}, fmt.Errorf("core: bad mean %q: %w", vparts[0], err)
	}
	stdv, err := strconv.ParseFloat(vparts[1], 64)
	if err != nil {
		return sqlstore.StatRow{}, fmt.Errorf("core: bad stdv %q: %w", vparts[1], err)
	}
	return sqlstore.StatRow{
		Attribute: kparts[0], Location: kparts[1],
		Hour: hour, Day: day, Mean: mean, Stdv: stdv,
	}, nil
}

// DynamicManager wires the batch loop of §4.1.3 together: it runs the
// statistics job over the accumulated history, upserts the results into the
// storage medium, and refreshes every registered rule installation so the
// running engines pick up the new thresholds in real time.
type DynamicManager struct {
	FS            *dfs.FS
	Store         *sqlstore.ThresholdStore
	HistoryPrefix string // defaults to "history/"; set before the first AppendHistory
	NumReducers   int
	// Telemetry, when non-nil, is forwarded to the statistics MapReduce
	// jobs so batch phase timings land in the same registry as the
	// streaming metrics.
	Telemetry *telemetry.Registry

	mu       sync.Mutex
	installs []*InstalledRule
	runs     int

	histOnce sync.Once
	histPath string

	historyRecs atomic.Uint64
	statRows    atomic.Uint64
}

// Register adds a rule installation to be refreshed after each batch run.
func (m *DynamicManager) Register(inst *InstalledRule) {
	m.mu.Lock()
	m.installs = append(m.installs, inst)
	m.mu.Unlock()
}

// Unregister removes a rule installation from the refresh set; used when a
// live rebalance drains the last location off an engine and removes the
// statement. Unknown installations are ignored.
func (m *DynamicManager) Unregister(inst *InstalledRule) {
	m.mu.Lock()
	for i, have := range m.installs {
		if have == inst {
			m.installs = append(m.installs[:i], m.installs[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
}

// AppendHistory persists one record for the batch layer. The line is built
// in a stack buffer; the file system copies it.
func (m *DynamicManager) AppendHistory(rec HistoryRecord) error {
	var buf [256]byte
	if err := m.FS.Append(m.historyPath(), append(rec.appendLine(buf[:0]), '\n')); err != nil {
		return err
	}
	m.historyRecs.Add(1)
	return nil
}

func (m *DynamicManager) historyPrefix() string {
	if m.HistoryPrefix == "" {
		return "history/"
	}
	return m.HistoryPrefix
}

// historyPath is the file AppendHistory writes, fixed at the first append.
func (m *DynamicManager) historyPath() string {
	m.histOnce.Do(func() { m.histPath = m.historyPrefix() + "traces" })
	return m.histPath
}

// RunOnce executes one batch cycle: statistics job → store upsert → rule
// refresh. It returns the number of statistic rows produced.
func (m *DynamicManager) RunOnce() (int, error) {
	prefix := m.historyPrefix()
	inputs := m.FS.List(prefix)
	if len(inputs) == 0 {
		return 0, fmt.Errorf("core: no history under %q", prefix)
	}
	m.mu.Lock()
	m.runs++
	out := fmt.Sprintf("batch/stats-run%d", m.runs)
	m.mu.Unlock()

	rows, res, err := RunStatsJob(StatsJobConfig{
		FS: m.FS, InputPaths: inputs, OutputPath: out, NumReducers: m.NumReducers,
		Telemetry: m.Telemetry,
	})
	if err != nil {
		return 0, err
	}
	// The rows are read back: drop the run's part files so periodic runs
	// do not grow the file system without bound.
	for _, part := range res.PartFiles {
		m.FS.Delete(part)
	}
	m.statRows.Add(uint64(len(rows)))
	if err := m.Store.Put(rows); err != nil {
		return 0, err
	}
	m.mu.Lock()
	installs := append([]*InstalledRule(nil), m.installs...)
	m.mu.Unlock()
	for _, inst := range installs {
		if err := inst.Refresh(); err != nil {
			return 0, fmt.Errorf("core: refreshing rule %q: %w", inst.Rule.Name, err)
		}
	}
	return len(rows), nil
}

// Runs returns how many batch cycles have completed.
func (m *DynamicManager) Runs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

// Describe implements telemetry.Source.
func (m *DynamicManager) Describe() string {
	return "batch layer: dynamic-threshold manager (history → stats job → rule refresh)"
}

// Collect implements telemetry.Source: it publishes the batch loop's
// counters under core.batch.*.
func (m *DynamicManager) Collect(reg *telemetry.Registry) {
	m.mu.Lock()
	runs := m.runs
	installs := len(m.installs)
	m.mu.Unlock()
	reg.Counter("core.batch.runs").Store(uint64(runs))
	reg.Counter("core.batch.history_records").Store(m.historyRecs.Load())
	reg.Counter("core.batch.stat_rows").Store(m.statRows.Load())
	reg.Gauge("core.batch.registered_rules").Set(float64(installs))
}
