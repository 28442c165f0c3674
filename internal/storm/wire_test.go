package storm

import (
	"encoding/binary"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"trafficcep/internal/busdata"
	"trafficcep/internal/geo"
	"trafficcep/internal/telemetry"
)

// wireTestRuntime builds a minimal runtime so decodeBatchFrame has a batch
// pool to draw from.
func wireTestRuntime(t testing.TB) *Runtime {
	t.Helper()
	b := NewTopologyBuilder("wire")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 1, 1)
	b.SetBolt("sink", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestWireBatchRoundTrip encodes a batch covering every value tag — and a
// traced envelope — and asserts the decode reproduces the envelopes with
// the exact Go types intact (fields-grouping hashes and bolt type switches
// must behave identically on both sides of the wire).
func TestWireBatchRoundTrip(t *testing.T) {
	rt := wireTestRuntime(t)
	envs := []envelope{
		{local: 0, tuple: Tuple{Stream: "default", Values: map[string]any{
			"nil":     nil,
			"true":    true,
			"false":   false,
			"int":     -42,
			"int64":   int64(1) << 60,
			"uint64":  uint64(18446744073709551615),
			"float64": 3.14159,
			"float32": float32(2.5),
			"string":  "vehicle-17",
			"bytes":   []byte{0, 1, 2, 0xff},
			"time":    time.Unix(0, 1700000000123456789),
			"strings": []string{"a", "", "c"},
			"slice":   []any{1, "two", 3.0, nil},
			"map":     map[string]any{"k": "v", "n": 7},
		}}},
		{local: 2, tuple: Tuple{Stream: "speed", ack: 99, Values: map[string]any{"i": 5}}},
		{local: 1, tuple: Tuple{
			Stream: "default",
			Trace:  telemetry.TupleTrace{StartNanos: 123, EmitNanos: 456, Hops: 3},
			Values: map[string]any{"key": "L07"},
		}},
		{local: 0, tuple: Tuple{Stream: "empty"}}, // nil Values
	}
	frame, err := appendBatchFrame(nil, 7, 3, envs)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-frameHeaderLen {
		t.Fatalf("length prefix = %d, want %d", got, len(frame)-frameHeaderLen)
	}
	if frame[frameHeaderLen] != frameBatch {
		t.Fatalf("frame type = %d, want %d", frame[frameHeaderLen], frameBatch)
	}
	destEID, epoch, bt, err := rt.decodeBatchFrame(frame[frameHeaderLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	if destEID != 7 || epoch != 3 {
		t.Fatalf("destEID, epoch = %d, %d, want 7, 3", destEID, epoch)
	}
	if len(bt.envs) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(bt.envs), len(envs))
	}
	for i := range envs {
		want, got := envs[i], bt.envs[i]
		if got.local != want.local || got.tuple.Stream != want.tuple.Stream ||
			got.tuple.ack != want.tuple.ack || got.tuple.Trace != want.tuple.Trace {
			t.Errorf("envelope %d header: got %+v, want %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.tuple.Values, want.tuple.Values) {
			t.Errorf("envelope %d values: got %#v, want %#v", i, got.tuple.Values, want.tuple.Values)
		}
		for k, v := range want.tuple.Values {
			if reflect.TypeOf(got.tuple.Values[k]) != reflect.TypeOf(v) {
				t.Errorf("envelope %d key %q: type %T, want %T", i, k, got.tuple.Values[k], v)
			}
		}
	}
	rt.putBatch(bt)
}

// TestWireDecodeCopiesOutOfBuffer scribbles over the receive buffer after a
// decode and asserts the decoded payload is untouched. The ack tracker
// caches replay roots and executors may process envelopes long after
// arrival, so decoded values must never alias wire memory (the transport
// reuses its read buffer for the next frame).
func TestWireDecodeCopiesOutOfBuffer(t *testing.T) {
	rt := wireTestRuntime(t)
	envs := []envelope{{local: 0, tuple: Tuple{Stream: "default", Values: map[string]any{
		"route": "L07-outbound",
		"raw":   []byte("payload-bytes"),
		"tags":  []string{"bus", "stop"},
	}}}}
	frame, err := appendBatchFrame(nil, 0, 0, envs)
	if err != nil {
		t.Fatal(err)
	}
	_, _, bt, err := rt.decodeBatchFrame(frame[frameHeaderLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xAA
	}
	vals := bt.envs[0].tuple.Values
	if vals["route"] != "L07-outbound" {
		t.Errorf("route = %q after buffer reuse", vals["route"])
	}
	if string(vals["raw"].([]byte)) != "payload-bytes" {
		t.Errorf("raw = %q after buffer reuse", vals["raw"])
	}
	if got := vals["tags"].([]string); got[0] != "bus" || got[1] != "stop" {
		t.Errorf("tags = %v after buffer reuse", got)
	}
	if bt.envs[0].tuple.Stream != "default" {
		t.Errorf("stream = %q after buffer reuse", bt.envs[0].tuple.Stream)
	}
	rt.putBatch(bt)
}

// TestWireDecodeRejectsMalformedFrames: truncations at every interesting
// offset, trailing garbage, lying envelope counts and unknown value tags
// must all fail cleanly (error, no panic, no pooled batch leak).
func TestWireDecodeRejectsMalformedFrames(t *testing.T) {
	rt := wireTestRuntime(t)
	envs := []envelope{{local: 1, tuple: Tuple{Stream: "default", Values: map[string]any{"i": 1, "key": "k"}}}}
	frame, err := appendBatchFrame(nil, 3, 1, envs)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[frameHeaderLen+1:]

	for cut := 0; cut < len(payload); cut++ {
		if _, _, bt, err := rt.decodeBatchFrame(payload[:cut]); err == nil {
			// A truncation that still parses must at least not fabricate
			// envelopes beyond the declared count.
			rt.putBatch(bt)
			t.Errorf("truncated at %d/%d bytes: decode succeeded", cut, len(payload))
		}
	}
	if _, _, _, err := rt.decodeBatchFrame(append(append([]byte(nil), payload...), 0x00)); err == nil {
		t.Error("trailing byte: decode succeeded")
	}
	// Envelope count far beyond the remaining bytes must be rejected before
	// any allocation sized from it.
	lying := appendUvarint(appendUvarint(appendUvarint(nil, 3), 1), 1<<40)
	if _, _, _, err := rt.decodeBatchFrame(lying); err == nil {
		t.Error("oversized envelope count: decode succeeded")
	}
	if _, _, err := decodeValue([]byte{0xFE}); err == nil {
		t.Error("unknown value tag: decode succeeded")
	}
	if _, _, err := decodeValue(nil); err == nil {
		t.Error("empty value: decode succeeded")
	}
}

// TestWireControlFrameRoundTrip pins the control-plane codec, including the
// payload copy-out (responses outlive the read buffer: a waiting Control
// caller consumes them on another goroutine).
func TestWireControlFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"moves":[{"field":"key"}]}`)
	frame := appendControlFrame(nil, controlRequest, 42, "core.prepare", payload)
	cf, err := decodeControlFrame(frame[frameHeaderLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	if cf.kind != controlRequest || cf.id != 42 || cf.method != "core.prepare" || string(cf.payload) != string(payload) {
		t.Fatalf("decoded %+v", cf)
	}
	for i := range frame {
		frame[i] = 0
	}
	if string(cf.payload) != `{"moves":[{"field":"key"}]}` {
		t.Fatal("control payload aliases the read buffer")
	}
	if _, err := decodeControlFrame(nil); err == nil {
		t.Error("empty control frame: decode succeeded")
	}
}

// TestWireSmallFrames pins the fixed frames' layout: hello, eof, ackResult,
// fence/fenceAck and heartbeat.
func TestWireSmallFrames(t *testing.T) {
	check := func(frame []byte, typ byte) []byte {
		t.Helper()
		if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-frameHeaderLen {
			t.Fatalf("length prefix = %d, want %d", got, len(frame)-frameHeaderLen)
		}
		if frame[frameHeaderLen] != typ {
			t.Fatalf("type = %d, want %d", frame[frameHeaderLen], typ)
		}
		return frame[frameHeaderLen+1:]
	}
	b := check(appendHelloFrame(nil, 3), frameHello)
	if w, _, _ := decodeUvarint(b); w != 3 {
		t.Errorf("hello worker = %d", w)
	}
	b = check(appendEOFFrame(nil, 11), frameEOF)
	if eid, _, _ := decodeUvarint(b); eid != 11 {
		t.Errorf("eof eid = %d", eid)
	}
	b = check(appendAckResultFrame(nil, 77, true), frameAckResult)
	id, rest, _ := decodeUvarint(b)
	if id != 77 || len(rest) != 1 || rest[0] != 1 {
		t.Errorf("ackResult = %d %v", id, rest)
	}
	b = check(appendFenceFrame(nil, frameFence, 9, "esper"), frameFence)
	epoch, rest, _ := decodeUvarint(b)
	comp, _, _ := decodeWireString(rest)
	if epoch != 9 || comp != "esper" {
		t.Errorf("fence = %d %q", epoch, comp)
	}
	check(appendFenceFrame(nil, frameFenceAck, 9, "esper"), frameFenceAck)
	check(appendHeartbeatFrame(nil), frameHeartbeat)
}

// FuzzWireFrame throws arbitrary payloads at the batch and control
// decoders: they must never panic and every successfully decoded batch
// must re-encode. Seeds cover a valid frame, a zero-envelope batch, a
// truncated frame and an oversized length claim.
func FuzzWireFrame(f *testing.F) {
	valid, err := appendBatchFrame(nil, 2, 1, []envelope{
		{local: 0, tuple: Tuple{Stream: "default", Values: map[string]any{"i": 7, "key": "k3"}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid[frameHeaderLen+1:])
	empty, err := appendBatchFrame(nil, 0, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty[frameHeaderLen+1:])                                      // zero-envelope batch
	f.Add(valid[frameHeaderLen+1 : len(valid)-3])                        // truncated frame
	f.Add(appendUvarint(appendUvarint(appendUvarint(nil, 1), 1), 1<<40)) // oversized envelope count
	f.Add(appendControlFrame(nil, controlRequest, 1, "m", []byte("p"))[frameHeaderLen+1:])

	rt := wireTestRuntime(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		if _, _, bt, err := rt.decodeBatchFrame(payload); err == nil {
			if _, err := appendBatchFrame(nil, 0, 0, bt.envs); err != nil {
				t.Fatalf("decoded batch does not re-encode: %v", err)
			}
			rt.putBatch(bt)
		}
		decodeControlFrame(payload)
	})
}

// BenchmarkWireBatchRoundTrip tracks the steady-state codec cost of one
// batch-frame round trip at the transport's default batch size: encode 64
// small envelopes into a frame, decode them back through a persistent
// frameDecoder (the readLoop's configuration, so the intern table and the
// Values-map stash amortize exactly as in production), then release the
// decoded batch under the receiver-releases contract. allocs/op is the
// regression signal: decode-side pooling should hold it near the floor of
// one boxed value per decoded map entry.
func BenchmarkWireBatchRoundTrip(b *testing.B) {
	rt := wireTestRuntime(b)
	envs := make([]envelope, 64)
	for i := range envs {
		envs[i] = envelope{tuple: Tuple{
			Stream: "default",
			Values: map[string]any{"k": i % 8, "v": i},
		}}
	}
	dec := &frameDecoder{r: rt}
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		frame, err = appendBatchFrame(frame[:0], 7, 1, envs)
		if err != nil {
			b.Fatal(err)
		}
		_, _, bt, err := dec.decodeBatchFrame(frame[frameHeaderLen+1:])
		if err != nil {
			b.Fatal(err)
		}
		rt.recycleBatchVals(bt)
		rt.putBatch(bt)
	}
}

// figure8Payload is the enriched tuple payload of the Figure 8 topology as
// it crosses the wire between the enrichment bolts and the engines: the
// BusReader's 11 fields, PreProcess's three, AreaTracker's quadtree path
// (five layers here) with its leaf, and BusStopsTracker's stop — 22 keys.
func figure8Payload(i int) map[string]any {
	tr := busdata.Trace{
		Timestamp: time.Date(2013, time.January, 2, 8, 30, i%60, 0, time.UTC),
		LineID:    "L07", Direction: i%2 == 0,
		Pos:   geo.Point{Lat: 53.35 + float64(i)*1e-4, Lon: -6.26},
		Delay: float64(i % 300), BusStop: "L07-S03",
		VehicleID: "V0" + strconv.Itoa(100+i%40),
	}
	m := tr.FillValues(busdata.GetValues())
	m["speed"] = 17.5 + float64(i%7)
	m["actualDelay"] = float64(i%11) - 5
	m["heading"] = float64(i % 360)
	areas := []string{"0", "0.2", "0.2.1", "0.2.1.3", "0.2.1.3." + strconv.Itoa(i%4)}
	for l, a := range areas {
		m["layer"+strconv.Itoa(l)+"Area"] = a
	}
	m["leafArea"] = areas[len(areas)-1]
	m["areaPath"] = areas
	m["stopId"] = "stop" + strconv.Itoa(1000+i%25)
	return m
}

// BenchmarkWireBatchRoundTripFigure8 is BenchmarkWireBatchRoundTrip on the
// real enriched payload: 64 envelopes of 22 fields each, so every frame
// repeats ~22 distinct keys 64 times and key interning shows in allocs/op.
func BenchmarkWireBatchRoundTripFigure8(b *testing.B) {
	rt := wireTestRuntime(b)
	envs := make([]envelope, 64)
	for i := range envs {
		envs[i] = envelope{tuple: Tuple{Stream: "routed", Values: figure8Payload(i)}}
	}
	dec := &frameDecoder{r: rt}
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		frame, err = appendBatchFrame(frame[:0], 7, 1, envs)
		if err != nil {
			b.Fatal(err)
		}
		_, _, bt, err := dec.decodeBatchFrame(frame[frameHeaderLen+1:])
		if err != nil {
			b.Fatal(err)
		}
		rt.recycleBatchVals(bt)
		rt.putBatch(bt)
	}
}

// TestWireDecodeInternsKeys: one decoder materializes each payload key and
// stream name once, so every envelope's keys share one backing array, and
// the intern table stops growing at internCap however many distinct keys
// arrive.
func TestWireDecodeInternsKeys(t *testing.T) {
	rt := wireTestRuntime(t)
	dec := &frameDecoder{r: rt}
	envs := make([]envelope, 64)
	for i := range envs {
		envs[i] = envelope{tuple: Tuple{Stream: "routed", Values: figure8Payload(i)}}
	}
	keyData := map[string]*byte{}
	var streamData *byte
	for round := 0; round < 2; round++ {
		frame, err := appendBatchFrame(nil, 0, 0, envs)
		if err != nil {
			t.Fatal(err)
		}
		_, _, bt, err := dec.decodeBatchFrame(frame[frameHeaderLen+1:])
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range bt.envs {
			if streamData == nil {
				streamData = unsafe.StringData(env.tuple.Stream)
			} else if unsafe.StringData(env.tuple.Stream) != streamData {
				t.Fatalf("stream name %q decoded into fresh memory", env.tuple.Stream)
			}
			for k := range env.tuple.Values {
				p := unsafe.StringData(k)
				if first, ok := keyData[k]; !ok {
					keyData[k] = p
				} else if p != first {
					t.Fatalf("round %d: key %q decoded into fresh memory", round, k)
				}
			}
		}
		rt.recycleBatchVals(bt)
		rt.putBatch(bt)
	}
	if len(keyData) != 22 {
		t.Fatalf("saw %d distinct keys, want 22", len(keyData))
	}

	// Key churn: 10k distinct keys fill the table to its bound and no
	// further, and still decode correctly once it is full.
	churn := make([]envelope, 100)
	for f := 0; f < 100; f++ {
		for i := range churn {
			churn[i] = envelope{tuple: Tuple{Stream: "routed", Values: map[string]any{
				"k" + strconv.Itoa(f*len(churn)+i): i,
			}}}
		}
		frame, err := appendBatchFrame(nil, 0, 0, churn)
		if err != nil {
			t.Fatal(err)
		}
		_, _, bt, err := dec.decodeBatchFrame(frame[frameHeaderLen+1:])
		if err != nil {
			t.Fatal(err)
		}
		for i, env := range bt.envs {
			if key := "k" + strconv.Itoa(f*len(churn)+i); env.tuple.Values[key] != i {
				t.Fatalf("churned key %q decoded as %v", key, env.tuple.Values)
			}
		}
		rt.recycleBatchVals(bt)
		rt.putBatch(bt)
	}
	if n := len(dec.intern); n != internCap {
		t.Fatalf("intern table holds %d strings after 10k distinct keys, want its bound %d", n, internCap)
	}
}
