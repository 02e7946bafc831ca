package main

// serverLayers reads the servers' own instruments after the untraced
// window: what the program says about itself, as a cross-check of what the
// benchmark measured from outside.
func serverLayers(res *result, g *rig) {
	var requests, shed, errs, latCount, latSum uint64
	var recorded, dropped uint64
	var aggBytes int64
	levelMax, transitions := 0, uint64(0)
	for _, s := range g.Servers {
		for _, st := range readServeMetrics(s).Endpoints {
			requests += st.Requests
			shed += st.Shed
			errs += st.Errors
			latCount += st.Latency.Count
			latSum += st.Latency.Count * st.Latency.MeanNs
		}
		v := s.Analytics().Vars()
		recorded += v.Recorded
		dropped += v.Dropped
		aggBytes += v.AggBytes
		d := s.Degrade().Snapshot()
		levelMax = max(levelMax, d.PeakLevel)
		transitions += d.Transitions
	}
	if latCount > 0 {
		res.set("serve.admitted_mean_ns", float64(latSum)/float64(latCount), "ns")
	}
	if requests > 0 {
		res.set("serve.shed_frac", float64(shed)/float64(requests), "ratio")
	}
	res.set("serve.errors", float64(errs), "count")
	if recorded+dropped > 0 {
		res.set("analytics.drop_frac", float64(dropped)/float64(recorded+dropped), "ratio")
	}
	res.set("analytics.agg_bytes", float64(aggBytes), "B")
	res.set("degrade.level_max", float64(levelMax), "count")
	res.set("degrade.transitions", float64(transitions), "count")
	if g.Gateway == nil {
		return
	}
	m := readGatewayMetrics(g.Gateway)
	res.set("fleet.retries", float64(m.Retries), "count")
	res.set("fleet.hedges", float64(m.Hedges), "count")
	res.set("fleet.failovers", float64(m.Failovers), "count")
	res.set("fleet.no_backend", float64(m.NoBackend), "count")
	var total, most uint64
	for _, b := range m.Backends {
		total += b.Requests
		most = max(most, b.Requests)
	}
	if total > 0 {
		res.set("fleet.backend_share_max", float64(most)/float64(total), "ratio")
	}
}

// finishLayers derives the layers that are differences of measured ones and
// closes the budget: the layers a request crosses, plus
// trace.unattributed_ns, sum to trace.roundtrip_ns.
func finishLayers(res *result) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	if _, ok := res.Metrics["serve.handler_ns"]; ok {
		res.set("serve.envelope_ns", v("serve.handler_ns")-v("abp.probe_ns"), "ns")
	}
	layers := v("loopback.self_ns") + v("fleet.hop_ns") +
		v("serve.envelope_ns") + v("abp.probe_ns") + v("serve.classify_handler_us")*1e3
	res.set("trace.unattributed_ns", v("trace.roundtrip_ns")-layers, "ns")
}
