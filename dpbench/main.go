// Command dpbench is the NFP dataplane benchmark. It drives a live
// dataplane.Server, configured the way nfpd ships it, from one injector
// goroutine and one output-drain goroutine; checks every output against
// the sequential composition of the same chain; and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	python3 dpbench/run.py --workload fwd5_64b --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, with
// --trace 1 the per-layer metrics, which add standalone layer timings
// and a separate traced run. A failed correctness gate prints the
// result with correct=false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dpbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fwd5_64b, northsouth_dc or westeast_flood")
	seed := fs.Int64("seed", 1, "traffic seed; the same seed gives the same packets")
	seconds := fs.Int("seconds", 10, "measured seconds per run (1-60)")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || *seconds > 60) {
		err = fmt.Errorf("--seconds %d outside 1..60", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	printMeta(w, *seed, *seconds, *trace)
	out, err := bench(w, *seed, planFor(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		return 1
	}
	set := endToEnd
	if *trace == 1 {
		set = perLayer
	}
	line, err := out.report(set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		return 1
	}
	fmt.Println(line)
	if !out.correct() {
		return 1
	}
	return 0
}

// plan is how one run spends its --seconds.
type plan struct {
	setups                    int // throwaway set-ups per batch; three batches
	openWarm, openMeasure     time.Duration
	traceMeasure              time.Duration
	closedWarm, closedMeasure time.Duration
	closedWin                 time.Duration
}

func planFor(seconds int) plan {
	s := time.Duration(seconds) * time.Second
	return plan{
		setups:   10,
		openWarm: 500 * time.Millisecond, openMeasure: max(s/2, 2*time.Second),
		traceMeasure: max(s*3/10, 2*time.Second),
		closedWarm:   300 * time.Millisecond, closedMeasure: s * 2 / 5,
		closedWin: 250 * time.Millisecond,
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// imbalance is max/mean of the per-merger processed counts (0 when no
// merger ran).
func imbalance(load []uint64) float64 {
	var sum, hi uint64
	for _, l := range load {
		sum += l
		hi = max(hi, l)
	}
	if sum == 0 {
		return 0
	}
	return float64(hi) * float64(len(load)) / float64(sum)
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// reconcile lays the traced stage p50s beside the untraced latency p50
// and names what the stages do not cover.
func reconcile(tr traceResult, untracedP50 float64) []string {
	us := func(ns int64) string { return fmt.Sprintf("%.1f us", float64(ns)/1e3) }
	sum := float64(tr.stageSum()) / 1e3
	return []string{
		fmt.Sprintf("traced run: %d of %d sampled packets decomposed (%.1f%%)", tr.decomposed, tr.sampled, 100*tr.ratio()),
		fmt.Sprintf("  stage p50s: classify %s (includes generator lag and shard ingress queueing) + ring-wait %s + service %s + merge-wait %s + merge %s + output %s = %.1f us",
			us(tr.classify), us(tr.ringWait), us(tr.service), us(tr.mergeWait), us(tr.merge), us(tr.output), sum),
		fmt.Sprintf("  decomposed e2e p50 %s; traced latency_p50 %.1f us; untraced latency_p50 %.1f us",
			us(tr.e2eP50), tr.latP50/1e3, untracedP50),
		fmt.Sprintf("  gap untraced p50 - stage sum = %+.1f us: the output hand-off (output channel queueing and drain wake-up, not spanned) plus percentile non-additivity (a sum of p50s is not the p50 of sums)",
			untracedP50-sum),
		fmt.Sprintf("  tracing overhead (traced - untraced latency_p50) = %+.1f us", tr.latP50/1e3-untracedP50),
	}
}

// report prints the run's notes and metrics and returns the JSON
// result line for the metrics in set.
func (o *outcome) report(set []metric) (string, error) {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, p := range o.problems {
		fmt.Println("CORRECTNESS:", p)
	}
	fmt.Printf("failed_ratio = %.6g (%d failed of %d attempted)\n", ratio(o.failed, o.attempted), o.failed, o.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range set {
		v, ok := o.r[m.name]
		if !ok {
			return "", errors.New("metric " + m.name + " was not measured")
		}
		metrics[m.name] = value{v, m.unit}
		if m.moves != "" {
			fmt.Printf("%-40s %14.6g %-10s -> %s\n", m.name, v, m.unit, m.moves)
		} else {
			fmt.Printf("%-40s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, metrics})
	return string(b), err
}
