package main

import (
	"fmt"
	"time"

	"nfp/internal/dataplane"
	"nfp/internal/telemetry/flightrec"
)

// verdictCause is the one drop cause that is not a failure: an NF
// deciding to drop a packet is the chain working as configured.
var verdictCause = flightrec.CauseNFVerdict.String()

// audit is the conservation view of one stopped server.
type audit struct {
	injected, outputs, drops uint64
	verdictDrops             uint64
	// lost counts packets that died of any cause but nf_verdict, plus
	// any gap in injected == outputs + drops, plus leaked buffers.
	lost     uint64
	problems []string
}

// auditServer checks a stopped server: every injected packet is an
// output or a drop, the flight-recorder drop ledger reconciles, and
// the pool holds no buffer.
func auditServer(in *instance) audit {
	st := in.srv.Stats()
	a := audit{injected: in.injected, outputs: st.Outputs, drops: st.Drops + st.Unroutable}
	if got := a.outputs + a.drops; got != a.injected {
		a.problems = append(a.problems, fmt.Sprintf("conservation: injected %d != outputs %d + drops %d", a.injected, a.outputs, a.drops))
		a.lost += absDiff(got, a.injected)
	}
	if st.Injected != st.Outputs+st.Drops {
		a.problems = append(a.problems, fmt.Sprintf("server conservation: Injected %d != Outputs %d + Drops %d", st.Injected, st.Outputs, st.Drops))
		a.lost += absDiff(st.Injected, st.Outputs+st.Drops)
	}
	l := flightrec.ReadLedger(in.srv.Telemetry().Snapshot())
	if err := l.Verify(); err != nil {
		a.problems = append(a.problems, err.Error())
		a.lost++
	}
	for cause, n := range l.ByCause {
		if cause == verdictCause {
			a.verdictDrops += n
			continue
		}
		if n > 0 {
			a.problems = append(a.problems, fmt.Sprintf("%d packets dropped with cause %s", n, cause))
			a.lost += n
		}
	}
	if leak := in.srv.Pool().InUse(); leak != 0 {
		a.problems = append(a.problems, fmt.Sprintf("pool: %d buffers in use after Stop", leak))
		a.lost += uint64(leak)
	}
	return a
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// gateResult is the correctness gate's verdict on one live server.
type gateResult struct {
	failed, outputs, drops uint64
	problems               []string
	refTime                time.Duration
}

// gate replays exactly the packets the live server received through
// the same chain compiled with NoParallelism (the paper's sequential
// composition), untimed, on an otherwise identical server, and compares
// the two per output flow on PID-free digests and on verdict-drop
// counts. Both servers must also pass the conservation audit. Every
// packet in a mismatching digest bucket counts as failed.
func gate(live *instance, seed int64, cfg dataplane.Config) (gateResult, error) {
	var res gateResult
	la := auditServer(live)
	res.outputs, res.drops = la.outputs, la.drops
	res.failed += la.lost
	res.problems = append(res.problems, la.problems...)

	start := time.Now()
	g, err := live.w.compile(true)
	if err != nil {
		return res, err
	}
	ref, err := launch(live.w, g, seed, cfg)
	if err != nil {
		return res, err
	}
	for ref.injected < live.injected {
		ref.injectBurst(0, int(min(live.injected-ref.injected, burst)))
	}
	if err := ref.quiesce(time.Minute); err != nil {
		return res, fmt.Errorf("reference run: %w", err)
	}
	ref.stop()
	res.refTime = time.Since(start)

	ra := auditServer(ref)
	for _, p := range ra.problems {
		res.problems = append(res.problems, "reference: "+p)
	}
	res.failed += ra.lost
	if la.verdictDrops != ra.verdictDrops {
		res.problems = append(res.problems, fmt.Sprintf("verdict drops: parallel %d, sequential %d", la.verdictDrops, ra.verdictDrops))
	}
	if n, b := live.drain.dig.compare(ref.drain.dig); b > 0 {
		res.problems = append(res.problems, fmt.Sprintf("output digests differ in %d flow buckets (%d packets)", b, n))
		res.failed += n
	}
	if len(res.problems) > 0 && res.failed == 0 {
		res.failed = 1
	}
	return res, nil
}
