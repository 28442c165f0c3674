package main

// The ledger sets the run's CPU time per trace against the self times of
// the layer calls one trace makes, measured by the single-threaded replay.
// What the layers do not account for — storm queueing and hand-offs, map
// cloning inside bolts, GC — is the unattributed remainder.

// ledgerLayers maps each per-layer self-time metric to its span.
var ledgerLayers = []struct{ metric, span string }{
	{"busdata.preprocess_us", spanPreprocess},
	{"quadtree.path_us", spanPath},
	{"dfs.append_us", spanAppend},
	{"core.route_us", spanRoute},
	{"cep.event_us", spanSendEvent},
	{"sqlstore.insert_us", spanInsert},
}

// ledger is the per-trace CPU account, in µs.
type ledger struct {
	perCallUs      map[string]float64 // per layer metric: self time of one call
	perTraceUs     map[string]float64 // per layer metric: self time per trace
	layersUs       float64            // Σ perTraceUs
	runCPUUs       float64
	unattributedUs float64
}

func ledgerFrom(self map[string]selfTime, traces int, runCPUUs float64) ledger {
	l := ledger{perCallUs: map[string]float64{}, perTraceUs: map[string]float64{}, runCPUUs: runCPUUs}
	for _, layer := range ledgerLayers {
		st := self[layer.span]
		l.perCallUs[layer.metric] = st.perCallUs()
		l.perTraceUs[layer.metric] = float64(st.ns) / 1e3 / float64(traces)
		l.layersUs += l.perTraceUs[layer.metric]
	}
	l.unattributedUs = runCPUUs - l.layersUs
	return l
}

// into writes the ledger's metrics: each layer's per-call self time, the
// single-thread baseline those self times imply, and the unattributed
// share of the run's CPU time.
func (l ledger) into(m map[string]float64) {
	for metric, us := range l.perCallUs {
		m[metric] = us
	}
	if l.layersUs > 0 {
		m["baseline.single_thread_tps"] = 1e6 / l.layersUs
	}
	if l.runCPUUs > 0 {
		m["ledger.unattributed_frac"] = l.unattributedUs / l.runCPUUs
	}
}
