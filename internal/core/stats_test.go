package core

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/dfs"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
)

// feedHistory generates minutes of the Table 2 feed and enriches it into
// history records the way trafficd bootstraps its batch layer.
func feedHistory(t testing.TB, minutes int) []HistoryRecord {
	t.Helper()
	gen, err := busdata.NewGenerator(busdata.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	traces := gen.Generate(time.Duration(minutes) * time.Minute)
	var seeds []geo.Point
	for i := 0; i < len(traces); i += len(traces)/512 + 1 {
		seeds = append(seeds, traces[i].Pos)
	}
	tree, err := quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 8, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	pre := busdata.NewPreprocessor()
	recs := make([]HistoryRecord, len(traces))
	for i, tr := range traces {
		e := pre.Process(tr)
		var areas []string
		for _, n := range tree.Path(tr.Pos) {
			areas = append(areas, string(n.ID))
		}
		recs[i] = HistoryRecord{
			Hour: tr.Hour(), Day: busdata.DayTypeOf(tr.Timestamp),
			StopID: tr.BusStop, Areas: areas,
			Delay: tr.Delay, ActualDelay: e.ActualDelay, Speed: e.SpeedKmh,
			Congestion: tr.Congestion,
		}
	}
	return recs
}

// historyFS writes records to one history file on a fresh file system.
func historyFS(t testing.TB, recs []HistoryRecord) *dfs.FS {
	t.Helper()
	fs := dfs.New(dfs.Options{})
	for _, rec := range recs {
		if err := fs.AppendLine("history/traces", rec.MarshalLine()); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

type statKey struct {
	attr, loc string
	hour      int
	day       busdata.DayType
}

// twoPassStats is the reference the statistics job is checked against:
// per (attribute, location, hour, day), the mean and then the sample
// standard deviation from the deviations about it, straight from the
// records.
func twoPassStats(recs []HistoryRecord) map[statKey][2]float64 {
	values := map[statKey][]float64{}
	for _, rec := range recs {
		locs := rec.Areas
		if rec.StopID != "" {
			locs = append([]string{rec.StopID}, rec.Areas...)
		}
		cong := 0.0
		if rec.Congestion {
			cong = 1
		}
		for attr, v := range map[string]float64{
			busdata.AttrDelay: rec.Delay, busdata.AttrActualDelay: rec.ActualDelay,
			busdata.AttrSpeed: rec.Speed, busdata.AttrCongestion: cong,
		} {
			for _, loc := range locs {
				k := statKey{attr, loc, rec.Hour, rec.Day}
				values[k] = append(values[k], v)
			}
		}
	}
	out := make(map[statKey][2]float64, len(values))
	for k, vs := range values {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		mean := sum / float64(len(vs))
		stdv := 0.0
		if len(vs) > 1 {
			var ss float64
			for _, v := range vs {
				ss += (v - mean) * (v - mean)
			}
			stdv = math.Sqrt(ss / float64(len(vs)-1))
		}
		out[k] = [2]float64{mean, stdv}
	}
	return out
}

func closeRel(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestStatsJobMatchesTwoPassReference(t *testing.T) {
	recs := feedHistory(t, 3)
	fs := historyFS(t, recs)
	rows, _, err := RunStatsJob(StatsJobConfig{FS: fs, InputPaths: fs.List("history/")})
	if err != nil {
		t.Fatal(err)
	}
	want := twoPassStats(recs)
	if len(rows) != len(want) {
		t.Fatalf("job produced %d rows, reference has %d keys", len(rows), len(want))
	}
	for _, r := range rows {
		k := statKey{r.Attribute, r.Location, r.Hour, r.Day}
		ref, ok := want[k]
		if !ok {
			t.Fatalf("job row %+v has no reference key", r)
		}
		if !closeRel(r.Mean, ref[0], 1e-9) || !closeRel(r.Stdv, ref[1], 1e-9) {
			t.Fatalf("%+v: mean,stdv = %v,%v, reference %v,%v", k, r.Mean, r.Stdv, ref[0], ref[1])
		}
	}
}

func TestStatsJobBitIdenticalAcrossRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fs := historyFS(t, feedHistory(t, 3))
	if chunks, _ := fs.Chunks("history/traces"); len(chunks) < 4 {
		t.Fatalf("need a multi-chunk feed, got %d chunks", len(chunks))
	}
	var first []sqlstore.StatRow
	for run := 0; run < 5; run++ {
		rows, _, err := RunStatsJob(StatsJobConfig{
			FS: fs, InputPaths: fs.List("history/"), OutputPath: fmt.Sprintf("batch/run%d", run),
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = rows
			continue
		}
		if len(rows) != len(first) {
			t.Fatalf("run %d: %d rows, run 0 had %d", run, len(rows), len(first))
		}
		for i, r := range rows {
			f := first[i]
			if r.Attribute != f.Attribute || r.Location != f.Location || r.Hour != f.Hour || r.Day != f.Day ||
				math.Float64bits(r.Mean) != math.Float64bits(f.Mean) ||
				math.Float64bits(r.Stdv) != math.Float64bits(f.Stdv) {
				t.Fatalf("run %d row %d = %+v, run 0 had %+v", run, i, r, f)
			}
		}
	}
}

// TestMergeMomentsSmallSpread checks the variance of values whose spread is
// tiny next to their mean, where Σx² − n·mean² cancels catastrophically.
func TestMergeMomentsSmallSpread(t *testing.T) {
	var m moments
	for i := 0; i < 1000; i++ {
		m = mergeMoments(m, moments{n: 1, mean: 1e9 + float64(i%2)})
	}
	line, err := statsReducer(nil, "", m)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(string(line), ",")
	stdv, _ := strconv.ParseFloat(parts[1], 64)
	// 500 zeros and 500 ones about the offset: sample variance 250/999.
	if want := math.Sqrt(250.0 / 999); !closeRel(stdv, want, 1e-9) {
		t.Fatalf("stdv = %v, want %v (line %q)", stdv, want, line)
	}
	if parts[2] != "1000" {
		t.Fatalf("n = %s, want 1000", parts[2])
	}
}

func TestDynamicManagerRunOnceKeepsFSFlat(t *testing.T) {
	store, err := sqlstore.NewThresholdStore(sqlstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	m := &DynamicManager{FS: dfs.New(dfs.Options{}), Store: store}
	for i := 0; i < 50; i++ {
		err := m.AppendHistory(HistoryRecord{
			Hour: i % 3, Day: busdata.Weekday, StopID: "s", Areas: []string{"0", "0.1"}, Delay: float64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	history := m.FS.TotalBytes()
	for run := 1; run <= 5; run++ {
		if _, err := m.RunOnce(); err != nil {
			t.Fatal(err)
		}
		if got := m.FS.TotalBytes(); got != history {
			t.Fatalf("after run %d the file system holds %d bytes, history alone is %d", run, got, history)
		}
	}
}
