package core

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/dfs"
	"trafficcep/internal/sqlstore"
)

func TestHistoryLineRoundTrip(t *testing.T) {
	rec := HistoryRecord{
		Hour: 8, Day: busdata.Weekend, StopID: "stop0007",
		Areas: []string{"0", "0.1", "0.1.2"},
		Delay: 120.5, ActualDelay: -3.25, Speed: 17, Congestion: true,
	}
	back, err := ParseHistoryLine(rec.MarshalLine())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hour != 8 || back.Day != busdata.Weekend || back.StopID != "stop0007" {
		t.Fatalf("back = %+v", back)
	}
	if len(back.Areas) != 3 || back.Areas[2] != "0.1.2" {
		t.Fatalf("areas = %v", back.Areas)
	}
	if back.Delay != 120.5 || back.ActualDelay != -3.25 || back.Speed != 17 || !back.Congestion {
		t.Fatalf("values = %+v", back)
	}
}

// joinHistoryLine is the history line format built field by field with
// strings.Join and FormatFloat: the reference the appending encoder must
// match byte for byte.
func joinHistoryLine(h HistoryRecord) string {
	cong := "0"
	if h.Congestion {
		cong = "1"
	}
	return strings.Join([]string{
		strconv.Itoa(h.Hour),
		h.Day.String(),
		h.StopID,
		strings.Join(h.Areas, "|"),
		strconv.FormatFloat(h.Delay, 'g', -1, 64),
		strconv.FormatFloat(h.ActualDelay, 'g', -1, 64),
		strconv.FormatFloat(h.Speed, 'g', -1, 64),
		cong,
	}, ",")
}

// TestHistoryLinesMatchJoinFormat: on a generated feed, MarshalLine and the
// file AppendHistory writes are byte-identical to the reference format, and
// every line parses back to its record.
func TestHistoryLinesMatchJoinFormat(t *testing.T) {
	recs := feedHistory(t, 3)
	m := &DynamicManager{FS: dfs.New(dfs.Options{})}
	var want strings.Builder
	for i, rec := range recs {
		ref := joinHistoryLine(rec)
		if got := rec.MarshalLine(); got != ref {
			t.Fatalf("record %d: MarshalLine %q, reference %q", i, got, ref)
		}
		back, err := ParseHistoryLine(ref)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("record %d: parsed %+v, want %+v", i, back, rec)
		}
		if err := m.AppendHistory(rec); err != nil {
			t.Fatal(err)
		}
		want.WriteString(ref)
		want.WriteByte('\n')
	}
	got, err := m.FS.Read("history/traces")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("AppendHistory wrote %d bytes that differ from the %d reference bytes", len(got), want.Len())
	}
}

func TestHistoryLineNoAreas(t *testing.T) {
	rec := HistoryRecord{Hour: 1, StopID: "s", Delay: 1}
	back, err := ParseHistoryLine(rec.MarshalLine())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Areas) != 0 {
		t.Fatalf("areas = %v", back.Areas)
	}
}

func TestParseHistoryLineErrors(t *testing.T) {
	bad := []string{
		"too,few,fields",
		"x,weekday,s,0,1,2,3,0",      // bad hour
		"1,weekday,s,0,notnum,2,3,0", // bad delay
		"1,weekday,s,0,1,notnum,3,0", // bad actual
		"1,weekday,s,0,1,2,notnum,0", // bad speed
	}
	for _, line := range bad {
		if _, err := ParseHistoryLine(line); err == nil {
			t.Errorf("line %q should fail", line)
		}
	}
}

func TestStatsJobComputesMeanAndStdv(t *testing.T) {
	fs := dfs.New(dfs.Options{ChunkSize: 256})
	// Six records at stop "s1" in area "0.1" at hour 8, delays 10..60.
	for i := 1; i <= 6; i++ {
		rec := HistoryRecord{
			Hour: 8, Day: busdata.Weekday, StopID: "s1",
			Areas: []string{"0", "0.1"},
			Delay: float64(i * 10), Speed: 20, ActualDelay: 0,
		}
		if err := fs.AppendLine("history/day1", rec.MarshalLine()); err != nil {
			t.Fatal(err)
		}
	}
	rows, res, err := RunStatsJob(StatsJobConfig{FS: fs, InputPaths: []string{"history/day1"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.InputRecords != 6 {
		t.Fatalf("records = %d", res.Counters.InputRecords)
	}
	// Expect stats for 4 attributes × 3 locations (s1, 0, 0.1).
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	var found bool
	for _, r := range rows {
		if r.Attribute == busdata.AttrDelay && r.Location == "s1" {
			found = true
			if math.Abs(r.Mean-35) > 1e-9 {
				t.Fatalf("mean = %v, want 35", r.Mean)
			}
			// Sample stddev of 10..60 step 10 is ~18.708.
			if math.Abs(r.Stdv-18.708) > 0.01 {
				t.Fatalf("stdv = %v, want ~18.708", r.Stdv)
			}
			if r.Hour != 8 || r.Day != busdata.Weekday {
				t.Fatalf("key = %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("missing delay@s1 stats")
	}
}

func TestStatsJobSeparatesHourAndDay(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	put := func(hour int, day busdata.DayType, delay float64) {
		rec := HistoryRecord{Hour: hour, Day: day, StopID: "s", Delay: delay}
		if err := fs.AppendLine("history/h", rec.MarshalLine()); err != nil {
			t.Fatal(err)
		}
	}
	put(8, busdata.Weekday, 100)
	put(8, busdata.Weekend, 10)
	put(9, busdata.Weekday, 50)
	rows, _, err := RunStatsJob(StatsJobConfig{FS: fs, InputPaths: fs.List("history/")})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range rows {
		if r.Attribute == busdata.AttrDelay {
			got[r.Day.String()+"-"+strconv.Itoa(r.Hour)] = r.Mean
		}
	}
	if got["weekday-8"] != 100 || got["weekend-8"] != 10 || got["weekday-9"] != 50 {
		t.Fatalf("stats = %v", got)
	}
}

func TestDynamicManagerEndToEnd(t *testing.T) {
	fs := dfs.New(dfs.Options{ChunkSize: 512})
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m := &DynamicManager{FS: fs, Store: store}

	// Write a history where area "A" sees delays around 100 at hour 8.
	for i := 0; i < 20; i++ {
		err := m.AppendHistory(HistoryRecord{
			Hour: 8, Day: busdata.Weekday, StopID: "sA",
			Areas: []string{"A"}, Delay: 100 + float64(i%5),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// An engine with a rule on layer-0 areas, stream strategy. Install
	// needs thresholds to exist, so run the batch once before wiring.
	if n, err := m.RunOnce(); err != nil || n == 0 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	eng := cep.New()
	rule := Rule{Name: "dyn", Attribute: busdata.AttrDelay, Kind: QuadtreeLayer, Layer: 0, Window: 1, Sensitivity: 1}
	inst, err := InstallRule(eng, rule, InstallOptions{Strategy: StrategyStream, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	m.Register(inst)
	fired := countFirings(inst)

	send := func(delay float64) {
		err := eng.SendEvent(BusStream, map[string]cep.Value{
			"layer0Area": "A", "hour": 8.0, "day": busdata.Weekday.String(), "delay": delay,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	send(90) // below mean+stdv (~102+)
	if *fired != 0 {
		t.Fatal("fired below dynamic threshold")
	}
	send(150)
	if *fired == 0 {
		t.Fatal("did not fire above dynamic threshold")
	}

	// Conditions change: delays around 300 become normal. After the next
	// batch run, 150 must no longer fire.
	for i := 0; i < 200; i++ {
		err := m.AppendHistory(HistoryRecord{
			Hour: 8, Day: busdata.Weekday, StopID: "sA",
			Areas: []string{"A"}, Delay: 300 + float64(i%9),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if m.Runs() != 2 {
		t.Fatalf("runs = %d", m.Runs())
	}
	*fired = 0
	send(150)
	if *fired != 0 {
		t.Fatal("threshold did not adapt upward")
	}
	send(400)
	if *fired == 0 {
		t.Fatal("rule dead after adaptation")
	}
}

func TestDynamicManagerNoHistory(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m := &DynamicManager{FS: fs, Store: store}
	if _, err := m.RunOnce(); err == nil {
		t.Fatal("expected error with no history")
	}
}
