package main

// metricDef names one reported number, its unit and how a run yields it.
// The names and units match BENCHMARK.json.
type metricDef struct {
	name  string
	unit  string
	value func(*runResult) float64
}

// endToEnd is what a user of the cluster sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", func(r *runResult) float64 { return r.overRounds(func(s roundStats) float64 { return s.setupS }) }},
	{"commit_p50_ms", "ms", func(r *runResult) float64 { return quantile(r.pooled(roundLatencies), 0.50) }},
	// p95, not p99: on a shared host the p99 of a run follows the
	// hypervisor's steal (93 to 585 ms across runs at 0 to 46% steal)
	// more than the program. The p99 is printed on the fingerprint line.
	{"commit_p95_ms", "ms", func(r *runResult) float64 { return quantile(r.pooled(roundLatencies), 0.95) }},
	{"delivered_per_s", "1/s", func(r *runResult) float64 {
		return r.overRounds(func(s roundStats) float64 { return s.deliveredPerS })
	}},
	// The complement of the failed share (refused, late or lost labels
	// over attempted), so that it is never 0.
	{"indicated_frac", "ratio", func(r *runResult) float64 {
		return 1 - ratio(float64(r.failed), float64(r.attempted))
	}},
	{"cpu_ms_per_label", "ms", func(r *runResult) float64 { return r.cpuMsPerLabel }},
	{"max_rss_mb", "MB", func(r *runResult) float64 { return r.overRounds(func(s roundStats) float64 { return s.rssMB }) }},
	// Every round's rejoins: a rejoin is a short burst at one moment, so
	// the round's steal says little about it, and more samples do.
	{"rejoin_p50_s", "s", func(r *runResult) float64 {
		return median(rejoinValues(r, func(s rejoinSample) float64 { return s.rejoin.Seconds() }))
	}},
}

// perLayer is what the traced run reports, layer by layer. A layer that
// does not run on a workload reports 0.
var perLayer = []metricDef{
	{"loadgen.lag_p99_ms", "ms", func(r *runResult) float64 { return quantile(r.ls.lagMs, 0.99) }},

	{"gateway.post_p50_us", "us", func(r *runResult) float64 { return median(r.ls.postUs) }},
	{"gateway.self_p50_us", "us", func(r *runResult) float64 { return median(r.ls.selfUs) }},
	{"gateway.non_2xx", "count", func(r *runResult) float64 { return float64(r.ls.non2xx) }},

	{"mempool.submit_p50_us", "us", func(r *runResult) float64 { return median(r.ls.submitUs) }},
	{"mempool.wait_p50_ms", "ms", func(r *runResult) float64 { return median(r.mpWaitMs) }},
	{"mempool.labels_per_block", "count", func(r *runResult) float64 {
		return ratio(float64(r.ctr.m.RequestsEmbedded), float64(r.ctr.m.BlocksBuilt))
	}},
	{"mempool.overflow_frac", "ratio", func(r *runResult) float64 {
		return ratio(float64(r.ctr.mp.Overflow), float64(r.ctr.mp.Submitted))
	}},
	{"mempool.peak_depth", "count", func(r *runResult) float64 { return float64(r.peakDepth) }},

	{"core.blocks_built_per_s", "1/s", func(r *runResult) float64 { return float64(r.ctr.m.BlocksBuilt) / r.windowS }},
	{"gossip.duplicate_frac", "ratio", func(r *runResult) float64 {
		return ratio(float64(r.ctr.m.BlocksDuplicate), float64(r.ctr.m.BlocksReceived))
	}},
	{"gossip.fwd_per_kblock", "count", func(r *runResult) float64 {
		return 1000 * ratio(float64(r.ctr.m.FwdRequestsSent), float64(r.ctr.m.BlocksInserted))
	}},
	{"gossip.rejected", "count", func(r *runResult) float64 { return float64(r.ctr.m.BlocksRejected) }},
	{"node.deliver_p99_us", "us", func(r *runResult) float64 { return quantile(r.tc.deliverUs, 0.99) }},

	{"transport.sends_per_label", "count", func(r *runResult) float64 {
		return ratio(float64(r.sends), float64(r.delivered))
	}},
	{"transport.bytes_per_label", "B", func(r *runResult) float64 {
		return ratio(float64(r.sendBytes), float64(r.delivered))
	}},
	{"transport.send_to_deliver_p50_ms", "ms", func(r *runResult) float64 { return median(r.tc.sendToDeliverMs) }},
	{"tcpnet.rejections", "count", func(r *runResult) float64 { return float64(r.rejections) }},
	{"tcpnet.auth_failures", "count", func(r *runResult) float64 { return float64(r.authFail) }},

	{"crypto.verifies_per_block", "count", func(r *runResult) float64 {
		return ratio(float64(r.ctr.verified), float64(r.ctr.m.BlocksInserted))
	}},
	{"crypto.signs_per_block", "count", func(r *runResult) float64 {
		return ratio(float64(r.ctr.signed), float64(r.ctr.m.BlocksBuilt))
	}},
	{"crypto.verifies_per_recovered_block", "count", func(r *runResult) float64 {
		var verifies, blocks int
		for _, s := range r.rejoins {
			verifies += int(s.verifies)
			blocks += s.recovered + s.catchUp
		}
		return ratio(float64(verifies), float64(blocks))
	}},

	{"interpret.blocks_per_s", "1/s", func(r *runResult) float64 {
		return float64(r.ctr.m.BlocksInterpreted) / nReplicas / r.windowS
	}},
	{"interpret.msgs_per_label", "count", func(r *runResult) float64 {
		return ratio(float64(r.ctr.m.MsgsMaterialized), float64(r.delivered)) / nReplicas
	}},
	{"interpret.compression", "ratio", func(r *runResult) float64 {
		return ratio(float64(r.ctr.m.MsgsMaterialized), float64(r.ctr.m.WireMessages))
	}},
	{"protocol.process_us_per_label", "us", func(r *runResult) float64 {
		return ratio(float64(r.protoNs)/1e3, float64(r.delivered)) / nReplicas
	}},
	{"interpret.broadcast_to_indication_p50_ms", "ms", func(r *runResult) float64 { return median(r.b2iMs) }},

	{"store.bytes_per_label", "B", func(r *runResult) float64 {
		return ratio(float64(r.ctr.disk), float64(r.delivered)) / nReplicas
	}},
	{"store.wal_segments", "count", func(r *runResult) float64 { return float64(r.walSegs) }},
	{"store.open_ms", "ms", func(r *runResult) float64 {
		return median(rejoinValues(r, func(s rejoinSample) float64 { return ms(s.open.Seconds()) }))
	}},
	{"store.open_us_per_block", "us", func(r *runResult) float64 {
		return median(rejoinValues(r, func(s rejoinSample) float64 {
			return ratio(1e6*s.open.Seconds(), float64(s.recovered))
		}))
	}},
	{"store.recovered_blocks", "count", func(r *runResult) float64 {
		return median(rejoinValues(r, func(s rejoinSample) float64 { return float64(s.recovered) }))
	}},

	{"node.new_ms", "ms", func(r *runResult) float64 {
		return median(rejoinValues(r, func(s rejoinSample) float64 { return ms(s.newNode.Seconds()) }))
	}},
	{"syncsvc.catchup_blocks", "count", func(r *runResult) float64 {
		return median(rejoinValues(r, func(s rejoinSample) float64 { return float64(s.catchUp) }))
	}},
	{"syncsvc.serve_ms", "ms", func(r *runResult) float64 { return median(r.tc.serveMs) }},
	{"syncsvc.follow_polls", "count", func(r *runResult) float64 { return float64(r.follow.polls) }},
	{"syncsvc.follow_blocks", "count", func(r *runResult) float64 { return float64(r.follow.blocks) }},
	{"syncsvc.follow_errors", "count", func(r *runResult) float64 { return float64(r.follow.errors) }},
	{"node.start_to_caughtup_ms", "ms", func(r *runResult) float64 {
		return median(rejoinValues(r, func(s rejoinSample) float64 { return ms(s.startToCaught.Seconds()) }))
	}},

	{"go.gc_cpu_frac", "ratio", func(r *runResult) float64 { return ratio(r.gcCPU, r.totalCPU) }},
	{"go.heap_peak_mb", "MB", func(r *runResult) float64 { return r.heapPeakMB }},
	{"go.goroutines", "count", func(r *runResult) float64 { return float64(r.goroutines) }},

	{"host.ed25519_verify_us", "us", func(r *runResult) float64 { return r.verifyUs }},
	{"host.fsync_ms", "ms", func(r *runResult) float64 { return r.fsyncMs }},
	{"host.steal_frac", "ratio", func(r *runResult) float64 {
		var xs []float64
		for _, s := range r.perRound {
			xs = append(xs, s.stealFrac)
		}
		return median(xs)
	}},
	{"trace.overhead_frac", "ratio", func(r *runResult) float64 { return r.overhead }},
}

func roundLatencies(s roundStats) []float64 { return s.latencies }

func rejoinValues(r *runResult, f func(rejoinSample) float64) []float64 {
	out := make([]float64, 0, len(r.rejoins))
	for _, s := range r.rejoins {
		out = append(out, f(s))
	}
	return out
}

func ms(seconds float64) float64 { return 1e3 * seconds }
