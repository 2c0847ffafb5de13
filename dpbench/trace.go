package main

import (
	"fmt"
	"time"

	"nfp/internal/telemetry"
)

// traceRate traces about one packet in 64 in the traced run.
const traceRate = 64

// traceCapacity sizes the tracer's span ring to hold every span of the
// traced run, so decomposition never meets an evicted head: about a
// dozen spans per sampled packet on the deepest graph, with headroom.
func traceCapacity(rate int, d time.Duration) int {
	want := int(float64(rate)*d.Seconds()/traceRate) * 24
	c := 1 << 12
	for c < want {
		c <<= 1
	}
	return c
}

// traceResult is the traced run's decomposition.
type traceResult struct {
	sampled, decomposed int
	// Per-stage p50 over decomposed packets, ns.
	classify, ringWait, service, mergeWait, merge, output int64
	e2eP50                                                int64
	latP50                                                float64 // harness due-to-output p50, ns
	audit                                                 audit
}

// tracedRun repeats the open-loop phase on a fresh server with the
// dataplane's own tracer on, and attributes each sampled packet's
// latency to stages with telemetry.Decompose. Tracing is off in every
// run that reports end-to-end metrics; the difference between the two
// latency p50s is the tracing overhead.
func tracedRun(w *workload, seed int64, warm, measure time.Duration) (traceResult, error) {
	var tr traceResult
	cfg := serverConfig(traceRate, traceCapacity(w.rate, warm+measure))
	in, _, err := setUp(w, seed, cfg)
	if err != nil {
		return tr, err
	}
	in.openLoop(w.rate, seed, warm, measure)
	if err := in.quiesce(time.Minute); err != nil {
		return tr, err
	}
	lat, _, err := latency(in.drain.lat, 50)
	if err != nil {
		return tr, fmt.Errorf("traced run: %w", err)
	}
	tr.latP50 = lat[0]

	groups, truncated := telemetry.GroupEvents(in.srv.Tracer().Events())
	tr.sampled = len(groups) + truncated
	var cls, rw, svc, mw, mg, out, e2e []int64
	for _, spans := range groups {
		at, ok := telemetry.Decompose(spans)
		if !ok {
			continue
		}
		tr.decomposed++
		cls = append(cls, at.Classify)
		rw = append(rw, at.RingWait)
		svc = append(svc, at.Service)
		mw = append(mw, at.MergeWait)
		mg = append(mg, at.Merge)
		out = append(out, at.Output)
		e2e = append(e2e, at.E2E)
	}
	p50 := func(xs []int64) int64 { v, _ := percentile(xs, 50); return v }
	tr.classify, tr.ringWait, tr.service = p50(cls), p50(rw), p50(svc)
	tr.mergeWait, tr.merge, tr.output = p50(mw), p50(mg), p50(out)
	tr.e2eP50 = p50(e2e)

	in.stop()
	tr.audit = auditServer(in)
	return tr, nil
}

func (tr traceResult) stageSum() int64 {
	return tr.classify + tr.ringWait + tr.service + tr.mergeWait + tr.merge + tr.output
}

func (tr traceResult) ratio() float64 {
	if tr.sampled == 0 {
		return 0
	}
	return float64(tr.decomposed) / float64(tr.sampled)
}
