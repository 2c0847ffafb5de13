package main

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"nfp/internal/dataplane"
)

// outcome is one run's measurements and correctness verdict.
type outcome struct {
	r                 results
	attempted, failed uint64
	problems          []string
	notes             []string
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// audit adds a stopped server's conservation audit to the outcome.
func (o *outcome) audit(a audit, prefix string) {
	o.attempted += a.injected
	o.failed += a.lost
	for _, p := range a.problems {
		o.problems = append(o.problems, prefix+p)
	}
}

// bench runs one workload. Set-up is timed on the server that carries
// the traffic and on throwaway servers brought up before, between and
// after its open- and closed-loop phases, so the figure samples the
// whole run. The correctness gate follows; with traced set, the
// standalone layer timings and the traced run close the run.
func bench(w *workload, seed int64, p plan, traced bool) (*outcome, error) {
	o := &outcome{r: results{}}
	cfg := serverConfig(0, 0)
	var sl setupLog
	if err := o.throwaways(w, seed, cfg, p.setups, &sl); err != nil {
		return nil, err
	}
	live, st, err := setUp(w, seed, cfg)
	if err != nil {
		return nil, err
	}
	sl.add(st)
	if err := o.openPhase(live, seed, p); err != nil {
		return nil, err
	}
	if err := o.throwaways(w, seed, cfg, p.setups, &sl); err != nil {
		return nil, err
	}
	if err := o.closedPhase(live, p); err != nil {
		return nil, err
	}
	if err := o.throwaways(w, seed, cfg, p.setups, &sl); err != nil {
		return nil, err
	}
	// Set-up waits on goroutine wake-ups, so single timings scatter;
	// the median of the run's timings is reported.
	o.r["setup_s"] = quantile(sl.total, 0.5)
	o.note("set-up: %d timings, ms %s", len(sl.total), fmtFloats(scale(sl.total, 1e3)))
	o.r["core.compile_ms"] = quantile(sl.compile, 0.5)
	o.r["dataplane.install_ms"] = quantile(sl.install, 0.5)

	live.stop()
	g, err := gate(live, seed, cfg)
	if err != nil {
		return nil, err
	}
	o.attempted += live.injected
	o.failed += g.failed
	o.problems = append(o.problems, g.problems...)
	o.note("correctness gate: %d packets replayed through the sequential chain in %v; %d outputs, %d drops",
		live.injected, g.refTime.Round(time.Millisecond), g.outputs, g.drops)

	if traced {
		if err := standalone(w, seed, o.r); err != nil {
			return nil, err
		}
		if err := o.tracePhase(w, seed, p); err != nil {
			return nil, err
		}
	}
	o.r["correct_ratio"] = 1 - float64(o.failed)/float64(o.attempted)
	return o, nil
}

// lagLimit flags an open-loop run whose generator ran late: a p99
// burst lateness above it means the offered schedule was not kept.
const lagLimit = 2 * time.Millisecond

// stealLimit flags a phase during which the hypervisor stole more than
// this share of the machine's CPU time: other tenants then ran on its
// CPUs, and its figures read high (latency) or low (rate).
const stealLimit = 0.05

// stealNote reports the share of CPU time the hypervisor stole during
// a phase and flags the phase above stealLimit.
func (o *outcome) stealNote(phase string, share float64) {
	o.note("%s: hypervisor steal %.1f%% of CPU time", phase, 100*share)
	if share > stealLimit {
		o.note("FLAG: %s ran on a disturbed host (steal above %.0f%%); its figures are not comparable with a quiet run", phase, 100*stealLimit)
	}
}

// openPhase offers the workload's fixed rate and records latency, CPU,
// the retained heap and the high-water marks the open loop reached.
func (o *outcome) openPhase(live *instance, seed int64, p plan) error {
	r, w := o.r, live.w
	open := live.openLoop(w.rate, seed, p.openWarm, p.openMeasure)
	if err := live.quiesce(time.Minute); err != nil {
		return err
	}
	lat, bursts, err := latency(live.drain.lat, 50, 90, 99)
	if err != nil {
		return err
	}
	r["latency_p50_us"] = lat[0] / 1e3
	r["latency_p90_us"] = lat[1] / 1e3
	r["latency_p99_us"] = lat[2] / 1e3
	r["trace.untraced_latency_p50_us"] = r["latency_p50_us"]
	r["cpu_cores_at_rate"] = open.cores
	lagP99, _ := percentile(open.lag, 99)
	r["gen.lag_p99_us"] = float64(lagP99) / 1e3
	o.note("open loop: %d pkt/s offered in Poisson bursts for %v, %d latency samples from %d bursts, generator lag p99 %.0f us",
		w.rate, p.openMeasure, len(live.drain.lat), bursts, float64(lagP99)/1e3)
	o.stealNote("open loop", open.steal)
	if time.Duration(lagP99) > lagLimit {
		o.note("FLAG: open-loop generator fell behind its schedule (lag p99 %v > %v); latency includes the lateness",
			time.Duration(lagP99), lagLimit)
	}

	// Live heap after a forced GC at the end of the open-loop traffic,
	// less the harness's own retained buffers (latency samples and
	// output digest): the per-flow state retained after a fixed number
	// of packets, so it does not vary with the closed loop's rate.
	open.lag = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	harness := live.drain.latencyBytes() + uint64(unsafe.Sizeof(digest{}))
	r["heap_live_mb"] = float64(ms.HeapAlloc-harness) / 1e6

	reg := live.srv.Telemetry()
	snap := reg.Snapshot()
	r["dataplane.ring_high_water_ratio"] = ringHighWaterRatio(snap)
	r["dataplane.shard_ingress_high_water"] = float64(gaugeMax(snap, "nfp_shard_ingress_high_water"))
	r["mempool.in_use_high_water"] = float64(gaugeMax(snap, "nfp_mempool_in_use_high_water"))
	r["merger.at_high_water"] = float64(gaugeMax(snap, "nfp_merger_at_high_water"))
	mlat := histFamily(reg, "nfp_merger_merge_latency_ns", nil)
	r["merger.merge_latency_ns_p50"] = float64(mlat.Percentile(50))
	return nil
}

// closedPhase runs the closed loop and records throughput with the
// per-packet layer counters of its measured window.
func (o *outcome) closedPhase(live *instance, p plan) error {
	r, reg := o.r, live.srv.Telemetry()
	var before layerCounters
	closed := live.closedLoop(p.closedWarm, p.closedMeasure, p.closedWin, func() {
		before = readCounters(reg, live.srv.Stats())
	})
	after := readCounters(reg, live.srv.Stats())
	if err := live.quiesce(time.Minute); err != nil {
		return err
	}
	pkts := float64(live.allocPkts)
	perPkt := func(a, b uint64) float64 { return float64(a-b) / pkts }
	r["throughput_mpps"] = closed.mpps
	r["dataplane.allocs_per_pkt"] = float64(closed.mallocs) / float64(closed.delivered)
	r["mempool.alloc_batch_ns"] = float64(live.allocNS) / pkts
	r["mempool.alloc_stalls_per_kpkt"] = float64(live.stalls) / pkts * 1e3
	r["dataplane.inject_batch_ns"] = float64(live.injectNS) / pkts
	r["gen.build_ns"] = float64(live.buildNS) / pkts
	r["dataplane.backpressure_parks_per_kpkt"] = perPkt(after.parks, before.parks) * 1e3
	r["dataplane.backpressure_yields_per_kpkt"] = perPkt(after.yields, before.yields) * 1e3
	hits, misses := after.hits-before.hits, after.misses-before.misses
	r["classifier.cache_hit_ratio"] = ratio(hits, hits+misses)
	r["classifier.cache_lookups_per_pkt"] = float64(hits+misses) / pkts
	r["classifier.cache_evictions_per_kpkt"] = perPkt(after.evictions, before.evictions) * 1e3
	r["dataplane.copies_per_pkt"] = perPkt(after.copies, before.copies)
	r["dataplane.copied_bytes_per_pkt"] = perPkt(after.copiedBytes, before.copiedBytes)
	for _, nf := range nfNames {
		d := after.service[nf].DeltaFrom(before.service[nf])
		r["nf."+nf+".service_ns_p50"] = float64(d.Percentile(50))
	}
	st := live.srv.Stats()
	r["merger.load_imbalance"] = imbalance(st.MergerLoad)
	o.note("closed loop: %d packets delivered, shard ingress split %v; sub-window rates %s Mpps (median reported)",
		closed.delivered, st.ShardIngress, fmtFloats(closed.windows))
	o.stealNote("closed loop", closed.steal)
	return nil
}

// tracePhase runs the traced open loop and reconciles its stages with
// the untraced latency.
func (o *outcome) tracePhase(w *workload, seed int64, p plan) error {
	tr, err := tracedRun(w, seed, p.openWarm, p.traceMeasure)
	if err != nil {
		return err
	}
	o.audit(tr.audit, "traced run: ")
	r := o.r
	r["trace.classify_ns"] = float64(tr.classify)
	r["trace.ring_wait_ns"] = float64(tr.ringWait)
	r["trace.service_ns"] = float64(tr.service)
	r["trace.merge_wait_ns"] = float64(tr.mergeWait)
	r["trace.merge_ns"] = float64(tr.merge)
	r["trace.output_ns"] = float64(tr.output)
	r["trace.stage_sum_us"] = float64(tr.stageSum()) / 1e3
	r["trace.decomposed_ratio"] = tr.ratio()
	r["trace.latency_p50_us"] = tr.latP50 / 1e3
	o.notes = append(o.notes, reconcile(tr, r["latency_p50_us"])...)
	return nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// setupLog collects set-up timings.
type setupLog struct {
	total, compile, install []float64 // s, ms, ms
}

func (l *setupLog) add(st setupTiming) {
	l.total = append(l.total, st.total.Seconds())
	l.compile = append(l.compile, float64(st.compile.Nanoseconds())/1e6)
	l.install = append(l.install, float64(st.install.Nanoseconds())/1e6)
}

// throwaways sets up n servers, each carrying only its first burst,
// logs their set-up timings, and stops and audits them. Each starts
// from a collected heap, as a freshly started nfpd does, so a
// collection owed to earlier traffic does not land inside a timing.
func (o *outcome) throwaways(w *workload, seed int64, cfg dataplane.Config, n int, l *setupLog) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		in, st, err := setUp(w, seed, cfg)
		if err != nil {
			return err
		}
		l.add(st)
		if err := in.quiesce(10 * time.Second); err != nil {
			return err
		}
		in.stop()
		o.audit(auditServer(in), "")
	}
	return nil
}
