package busdata

// payloadCap sizes a new payload map for the fields the Figure 8
// enrichment chain adds to the spout's 11 (speed, actual delay, heading, one
// area per quadtree layer, the leaf area, the area path and the stop): a
// map that starts at this size is not rehashed on its way to the engines.
// 28 is the largest hint that still gets a 32-slot table, and it covers
// paths of up to 11 layers (trafficd's trees have at most 9); a longer
// path grows the map once.
const payloadCap = 28

// GetValues returns a new, empty tuple-payload map sized for the enriched
// Figure 8 payload. The map is the only one a trace needs: the enrichment
// bolts write into it and re-emit it, and the engines keep it.
func GetValues() map[string]any {
	return make(map[string]any, payloadCap)
}

// FillValues writes the trace's tuple payload — the exact 11-field schema
// the BusReader spout emits — into m and returns it.
func (tr *Trace) FillValues(m map[string]any) map[string]any {
	m["ts"] = float64(tr.Timestamp.Unix())
	m["hour"] = float64(tr.Hour())
	m["day"] = DayTypeOf(tr.Timestamp).String()
	m["lineId"] = tr.LineID
	m["direction"] = tr.Direction
	m["lat"] = tr.Pos.Lat
	m["lon"] = tr.Pos.Lon
	m["delay"] = tr.Delay
	m["congestion"] = boolToFloat(tr.Congestion)
	m["busStop"] = tr.BusStop
	m["vehicleId"] = tr.VehicleID
	return m
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
