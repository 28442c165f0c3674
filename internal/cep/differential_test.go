package cep

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Differential harness: every scenario drives the same random event feed
// through four engines — the cross product of incremental evaluation
// on/off and expression compilation on/off — and asserts the emitted
// outputs are identical batch by batch across all rigs. Fields are
// integer-valued so maintained sums cancel exactly under retraction and
// the comparison can demand equality, not tolerance. Batches are compared
// as sorted multisets: group emission order is documented to differ
// between the modes once groups die and are re-created.

func canonFields(f map[string]Value) string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(valueKey(f[k]))
	}
	return sb.String()
}

// diffRig is one engine plus its collected output batches.
type diffRig struct {
	eng     *Engine
	batches [][]string
}

func newDiffRig(t *testing.T, stmts map[string]string, opts ...Option) *diffRig {
	t.Helper()
	rig := &diffRig{eng: New(opts...)}
	names := make([]string, 0, len(stmts))
	for name := range stmts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st, err := rig.eng.AddStatement(name, stmts[name])
		if err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
		st.AddListener(func(_ *Statement, outs []Output) {
			batch := make([]string, len(outs))
			for i, o := range outs {
				batch[i] = canonFields(o.Fields)
			}
			sort.Strings(batch)
			rig.batches = append(rig.batches, batch)
		})
	}
	return rig
}

type diffEvent struct {
	stream string
	fields map[string]Value
}

func runDifferential(t *testing.T, label string, stmts map[string]string, feed []diffEvent) {
	t.Helper()
	// Rig 0 (incremental + compiled, the production default) is the
	// reference; every other rig must match it event for event.
	rigs := []struct {
		name string
		rig  *diffRig
	}{
		{"inc+compiled", newDiffRig(t, stmts)},
		{"rec+compiled", newDiffRig(t, stmts, WithIncremental(false))},
		{"inc+interp", newDiffRig(t, stmts, WithCompiledExprs(false))},
		{"rec+interp", newDiffRig(t, stmts, WithIncremental(false), WithCompiledExprs(false))},
	}
	ref := rigs[0]
	for i, ev := range feed {
		errRef := ref.rig.eng.SendEvent(ev.stream, ev.fields)
		for _, other := range rigs[1:] {
			errOther := other.rig.eng.SendEvent(ev.stream, ev.fields)
			if (errRef == nil) != (errOther == nil) {
				t.Fatalf("%s: event %d error mismatch: %s=%v %s=%v",
					label, i, ref.name, errRef, other.name, errOther)
			}
			compareBatches(t, fmt.Sprintf("%s: event %d", label, i), ref.name, ref.rig, other.name, other.rig)
		}
	}
	requireOutputs(t, label, ref.rig)
}

// compareBatches fails unless two rigs have emitted identical batches.
func compareBatches(t *testing.T, at, nameA string, a *diffRig, nameB string, b *diffRig) {
	t.Helper()
	if len(a.batches) != len(b.batches) {
		t.Fatalf("%s: %s emitted %d batches, %s %d", at, nameA, len(a.batches), nameB, len(b.batches))
	}
	for bi := len(a.batches) - 1; bi >= 0; bi-- {
		x, y := a.batches[bi], b.batches[bi]
		if len(x) != len(y) {
			t.Fatalf("%s batch %d: %d vs %d outputs\n %s: %v\n %s: %v",
				at, bi, len(x), len(y), nameA, x, nameB, y)
		}
		for j := range x {
			if x[j] != y[j] {
				t.Fatalf("%s batch %d output %d:\n %s: %s\n %s: %s",
					at, bi, j, nameA, x[j], nameB, y[j])
			}
		}
	}
}

// requireOutputs fails a scenario whose reference rig never fired.
func requireOutputs(t *testing.T, label string, rig *diffRig) {
	t.Helper()
	total := 0
	for _, b := range rig.batches {
		total += len(b)
	}
	if total == 0 {
		t.Fatalf("%s: scenario produced no outputs; it exercises nothing", label)
	}
}

// randViews generates a window view chain that reports insert deltas.
func randView(rng *rand.Rand) string {
	k := 1 + rng.Intn(4)
	switch rng.Intn(6) {
	case 0:
		return "std:lastevent()"
	case 1:
		return fmt.Sprintf("win:length(%d)", k)
	case 2:
		return "win:keepall()"
	case 3:
		return "std:unique(loc)"
	case 4:
		return fmt.Sprintf("std:groupwin(loc).win:length(%d)", k)
	default:
		return fmt.Sprintf("win:length_batch(%d)", k)
	}
}

func randAggList(rng *rand.Rand) string {
	pool := []string{
		"avg(w.a) AS f0", "sum(w.a) AS f1", "count(*) AS f2", "count(w.b) AS f3",
		"min(w.a) AS f4", "max(w.a) AS f5", "stddev(w.a) AS f6",
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	n := 1 + rng.Intn(len(pool)-1)
	return strings.Join(pool[:n], ", ")
}

func randBusEvent(rng *rand.Rand, stream string) diffEvent {
	f := map[string]Value{
		"loc":  fmt.Sprintf("L%d", rng.Intn(3)),
		"hour": float64(rng.Intn(3)),
		"day":  "wd",
		"a":    float64(rng.Intn(8)),
	}
	if rng.Intn(10) < 7 {
		f["b"] = float64(rng.Intn(5))
	}
	return diffEvent{stream: stream, fields: f}
}

func TestDifferentialGroupedSingleWindow(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		where := ""
		if rng.Intn(2) == 0 {
			where = "WHERE w.a >= 2"
		}
		having := ""
		if rng.Intn(2) == 0 {
			having = fmt.Sprintf("HAVING sum(w.a) > %d", rng.Intn(8))
		}
		src := fmt.Sprintf("SELECT w.loc AS loc, %s FROM s0.%s AS w %s GROUP BY w.loc %s",
			randAggList(rng), randView(rng), where, having)
		feed := make([]diffEvent, 300)
		for i := range feed {
			feed[i] = randBusEvent(rng, "s0")
		}
		runDifferential(t, fmt.Sprintf("grouped/seed=%d [%s]", seed, src), map[string]string{"r": src}, feed)
	}
}

func TestDifferentialUngroupedSingleWindow(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		src := fmt.Sprintf("SELECT %s FROM s0.%s AS w", randAggList(rng), randView(rng))
		feed := make([]diffEvent, 300)
		for i := range feed {
			feed[i] = randBusEvent(rng, "s0")
		}
		runDifferential(t, fmt.Sprintf("ungrouped/seed=%d [%s]", seed, src), map[string]string{"r": src}, feed)
	}
}

func TestDifferentialTwoWindowJoin(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		src := fmt.Sprintf(`SELECT l.loc AS loc, avg(r.a) AS x, count(*) AS c, sum(l.a) AS y
			FROM s0.%s AS l, s1.%s AS r WHERE l.loc = r.loc GROUP BY l.loc`,
			randView(rng), randView(rng))
		feed := make([]diffEvent, 300)
		for i := range feed {
			if rng.Intn(2) == 0 {
				feed[i] = randBusEvent(rng, "s0")
			} else {
				feed[i] = randBusEvent(rng, "s1")
			}
		}
		runDifferential(t, fmt.Sprintf("join/seed=%d [%s]", seed, src), map[string]string{"r": src}, feed)
	}
}

func TestDifferentialListing1Shape(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		uni := ""
		if rng.Intn(2) == 0 {
			uni = "UNIDIRECTIONAL"
		}
		src := fmt.Sprintf(`SELECT bd2.loc AS loc, avg(bd2.a) AS cur, avg(th.value) AS thr
			FROM bus.std:lastevent() AS bd %s,
			     bus.std:groupwin(loc).win:length(%d) AS bd2,
			     thr.win:keepall() AS th
			WHERE bd.hour = th.hour AND bd.day = th.day AND bd.loc = th.location AND bd.loc = bd2.loc
			GROUP BY bd2.loc
			HAVING avg(bd2.a) > avg(th.value)`, uni, 1+rng.Intn(5))
		var feed []diffEvent
		for loc := 0; loc < 3; loc++ {
			for h := 0; h < 3; h++ {
				feed = append(feed, diffEvent{stream: "thr", fields: map[string]Value{
					"location": fmt.Sprintf("L%d", loc), "hour": float64(h),
					"day": "wd", "value": float64(rng.Intn(5)),
				}})
			}
		}
		for i := 0; i < 300; i++ {
			feed = append(feed, randBusEvent(rng, "bus"))
		}
		runDifferential(t, fmt.Sprintf("listing1/seed=%d", seed), map[string]string{"r": src}, feed)
	}
}

func TestDifferentialInsertIntoCascade(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		stmts := map[string]string{
			"upstream": fmt.Sprintf(`INSERT INTO derived SELECT w.loc AS loc, sum(w.a) AS a
				FROM s0.%s AS w GROUP BY w.loc`, randView(rng)),
			"downstream": fmt.Sprintf(`SELECT g.loc AS loc, avg(g.a) AS m, max(g.a) AS hi
				FROM derived.%s AS g GROUP BY g.loc`, randView(rng)),
		}
		feed := make([]diffEvent, 250)
		for i := range feed {
			feed[i] = randBusEvent(rng, "s0")
		}
		runDifferential(t, fmt.Sprintf("cascade/seed=%d", seed), stmts, feed)
	}
}

func TestDifferentialOrderBy(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		src := fmt.Sprintf(`SELECT w.loc AS loc, sum(w.a) AS s FROM s0.%s AS w
			GROUP BY w.loc ORDER BY w.loc`, randView(rng))
		feed := make([]diffEvent, 250)
		for i := range feed {
			feed[i] = randBusEvent(rng, "s0")
		}
		runDifferential(t, fmt.Sprintf("orderby/seed=%d", seed), map[string]string{"r": src}, feed)
	}
}

// TestDifferentialKeyFilter checks the per-statement key filter in each of
// the four evaluation modes: an engine whose statements filter the "loc"
// field of one stream, fed every event, must emit exactly what an
// unfiltered engine emits when fed only the admitted events. The key set
// is replaced mid-feed, so the oracle also pins the swap: every event is
// judged by the set current when it is sent. Streams other than the
// filtered one (thresholds, join partners, INSERT INTO targets) always
// pass.
func TestDifferentialKeyFilter(t *testing.T) {
	scenarios := []struct {
		name     string
		filtered string // the stream the filter applies to
		stmts    func(rng *rand.Rand) map[string]string
		feed     func(rng *rand.Rand) []diffEvent
	}{
		{"grouped", "s0",
			func(rng *rand.Rand) map[string]string {
				return map[string]string{"r": fmt.Sprintf(
					"SELECT w.loc AS loc, %s FROM s0.%s AS w GROUP BY w.loc", randAggList(rng), randView(rng))}
			},
			func(rng *rand.Rand) []diffEvent { return randFeed(rng, 300, "s0") }},
		{"join", "s0",
			func(rng *rand.Rand) map[string]string {
				return map[string]string{"r": fmt.Sprintf(`SELECT l.loc AS loc, avg(r.a) AS x, count(*) AS c
					FROM s0.%s AS l, s1.%s AS r WHERE l.loc = r.loc GROUP BY l.loc`, randView(rng), randView(rng))}
			},
			func(rng *rand.Rand) []diffEvent { return randFeed(rng, 300, "s0", "s1") }},
		{"listing1", "bus",
			func(rng *rand.Rand) map[string]string {
				return map[string]string{"r": fmt.Sprintf(`SELECT bd2.loc AS loc, avg(bd2.a) AS cur, avg(th.value) AS thr
					FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
					     bus.std:groupwin(loc).win:length(%d) AS bd2,
					     thr.win:keepall() AS th
					WHERE bd.hour = th.hour AND bd.day = th.day AND bd.loc = th.location AND bd.loc = bd2.loc
					GROUP BY bd2.loc
					HAVING avg(bd2.a) > avg(th.value)`, 1+rng.Intn(5))}
			},
			func(rng *rand.Rand) []diffEvent {
				var feed []diffEvent
				for i := 0; i < 300; i++ {
					if i%20 == 0 {
						feed = append(feed, diffEvent{stream: "thr", fields: map[string]Value{
							"location": fmt.Sprintf("L%d", rng.Intn(3)), "hour": float64(rng.Intn(3)),
							"day": "wd", "value": float64(rng.Intn(5)),
						}})
					}
					feed = append(feed, randBusEvent(rng, "bus"))
				}
				return feed
			}},
		{"cascade", "s0",
			func(rng *rand.Rand) map[string]string {
				return map[string]string{
					"upstream": fmt.Sprintf(`INSERT INTO derived SELECT w.loc AS loc, sum(w.a) AS a
						FROM s0.%s AS w GROUP BY w.loc`, randView(rng)),
					"downstream": fmt.Sprintf(`SELECT g.loc AS loc, avg(g.a) AS m
						FROM derived.%s AS g GROUP BY g.loc`, randView(rng)),
				}
			},
			func(rng *rand.Rand) []diffEvent { return randFeed(rng, 250, "s0") }},
	}
	modes := []struct {
		name string
		opts []Option
	}{
		{"inc+compiled", nil},
		{"rec+compiled", []Option{WithIncremental(false)}},
		{"inc+interp", []Option{WithCompiledExprs(false)}},
		{"rec+interp", []Option{WithIncremental(false), WithCompiledExprs(false)}},
	}
	for _, sc := range scenarios {
		for seed := int64(0); seed < 3; seed++ {
			for _, mode := range modes {
				rng := rand.New(rand.NewSource(700 + seed))
				stmts, feed := sc.stmts(rng), sc.feed(rng)
				label := fmt.Sprintf("keyfilter/%s/seed=%d/%s", sc.name, seed, mode.name)
				keySets := []map[string]bool{randKeys(rng), randKeys(rng)}

				filteredRig := newDiffRig(t, stmts, mode.opts...)
				oracle := newDiffRig(t, stmts, mode.opts...)
				setKeys := func(keys map[string]bool) {
					for _, name := range filteredRig.eng.StatementNames() {
						st, _ := filteredRig.eng.Statement(name)
						st.SetKeyFilter(sc.filtered, "loc", keys)
					}
				}
				setKeys(keySets[0])
				keys := keySets[0]
				var turnedAway uint64
				for i, ev := range feed {
					if i == len(feed)/2 {
						setKeys(keySets[1])
						keys = keySets[1]
					}
					errF := filteredRig.eng.SendEvent(ev.stream, ev.fields)
					var errO error
					if ev.stream != sc.filtered || keys[ev.fields["loc"].(string)] {
						errO = oracle.eng.SendEvent(ev.stream, ev.fields)
					} else {
						turnedAway++
					}
					if (errF == nil) != (errO == nil) {
						t.Fatalf("%s: event %d error mismatch: filtered=%v oracle=%v", label, i, errF, errO)
					}
					compareBatches(t, fmt.Sprintf("%s: event %d", label, i), "filtered", filteredRig, "oracle", oracle)
				}
				requireOutputs(t, label, oracle)
				var filtered uint64
				for _, name := range filteredRig.eng.StatementNames() {
					st, _ := filteredRig.eng.Statement(name)
					if _, reads := st.itemsByStream[sc.filtered]; reads {
						filtered = st.Metrics().Filtered
						ost, _ := oracle.eng.Statement(name)
						if got, want := st.Metrics().EventsIn, ost.Metrics().EventsIn; got != want {
							t.Fatalf("%s: %s events_in %d, oracle %d", label, name, got, want)
						}
					}
				}
				if filtered != turnedAway {
					t.Fatalf("%s: filtered counter %d, want %d", label, filtered, turnedAway)
				}
			}
		}
	}
}

// randFeed draws n bus events spread over the given streams.
func randFeed(rng *rand.Rand, n int, streams ...string) []diffEvent {
	feed := make([]diffEvent, n)
	for i := range feed {
		feed[i] = randBusEvent(rng, streams[rng.Intn(len(streams))])
	}
	return feed
}

// randKeys draws a non-empty subset of randBusEvent's locations.
func randKeys(rng *rand.Rand) map[string]bool {
	keys := map[string]bool{fmt.Sprintf("L%d", rng.Intn(3)): true}
	for l := 0; l < 3; l++ {
		if rng.Intn(2) == 0 {
			keys[fmt.Sprintf("L%d", l)] = true
		}
	}
	return keys
}
