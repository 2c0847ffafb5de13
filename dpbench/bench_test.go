package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"nfp/internal/mempool"
	"nfp/internal/packet"
)

// wire builds the first n packets of a fresh source and returns their
// bytes.
func wire(w *workload, seed int64, n int) [][]byte {
	pool := mempool.New(1, 2048)
	p := pool.Get()
	defer p.Free()
	src := w.newSource(seed)
	out := make([][]byte, n)
	for i := range out {
		packet.BuildInto(p, src.Next())
		out[i] = bytes.Clone(p.Bytes())
	}
	return out
}

func TestSameSeedSamePackets(t *testing.T) {
	for _, w := range workloads {
		a, b, c := wire(w, 7, 2000), wire(w, 7, 2000), wire(w, 8, 2000)
		same := true
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: packet %d differs between two sources with seed 7", w.name, i)
			}
			same = same && bytes.Equal(a[i], c[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same packet sequence", w.name)
		}
	}
}

func TestFloodNeverRepeatsATuple(t *testing.T) {
	w, err := lookupWorkload("westeast_flood")
	if err != nil {
		t.Fatal(err)
	}
	const n = 300_000
	pool := mempool.New(1, 2048)
	p := pool.Get()
	defer p.Free()
	src := w.newSource(3)
	seen := make(map[packet.FlowKey]int, n)
	for i := 0; i < n; i++ {
		packet.BuildInto(p, src.Next())
		fk, err := p.FlowKey()
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[fk]; dup {
			t.Fatalf("packet %d repeats the 5-tuple of packet %d: %+v", i, j, fk)
		}
		seen[fk] = i
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want int64
		ok   bool
	}{
		{999, 99, 990, false}, // 9 samples above rank 990
		{1000, 99, 990, true}, // 10 samples above rank 990
		{19, 50, 10, false},   // 9 samples above rank 10
		{20, 50, 10, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, p%v) = %d, %v; want %d, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestLatencyPoolsPacketsAndCountsBursts(t *testing.T) {
	// bursts of 32 packets; burst b's packets all read b*100+i ns.
	samples := func(bursts int) []sample {
		var s []sample
		for b := 1; b <= bursts; b++ {
			for i := 0; i < 32; i++ {
				s = append(s, sample{due: int64(b), ns: int64(b*100 + i)})
			}
		}
		return s
	}
	// 9 bursts, 288 packets: above the p50 rank lie 144 packets but
	// only 5 bursts, so no percentile is reported.
	if _, _, err := latency(samples(9), 50); err == nil {
		t.Error("latency reported a p50 with 5 bursts above it")
	}
	// 1000 bursts: 320 packets from 10 bursts lie above the p99 rank.
	got, bursts, err := latency(samples(1000), 50, 99)
	if err != nil || bursts != 1000 || !slices.Equal(got, []float64{50031, 99031}) {
		t.Errorf("latency = %v, %d, %v; want [50031 99031] from 1000 bursts", got, bursts, err)
	}
	// 900 bursts leave 288 packets, 9 bursts, above the p99 rank.
	if _, _, err := latency(samples(900), 50, 99); err == nil {
		t.Error("latency reported a p99 with 9 bursts above it")
	}
}

func TestCompiledShapes(t *testing.T) {
	want := map[string][2]string{
		"fwd5_64b":       {"(l3fwd -> l3fwd#1 -> l3fwd#2 -> l3fwd#3 -> l3fwd#4)", "(l3fwd -> l3fwd#1 -> l3fwd#2 -> l3fwd#3 -> l3fwd#4)"},
		"northsouth_dc":  {"(vpn -> [monitor || firewall] -> lb)", "(vpn -> monitor -> firewall -> lb)"},
		"westeast_flood": {"(ids -> [monitor || lb])", "(ids -> monitor -> lb)"},
	}
	for _, w := range workloads {
		live, err := w.compile(false)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := w.compile(true)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]string{live.String(), ref.String()}; got != want[w.name] {
			t.Errorf("%s compiles to %q, want %q", w.name, got, want[w.name])
		}
	}
}

func TestDigestCatchesOneChangedByte(t *testing.T) {
	pool := mempool.New(1, 2048)
	p := pool.Get()
	defer p.Free()
	w, _ := lookupWorkload("northsouth_dc")
	src := w.newSource(1)
	var a, b digest
	for i := 0; i < 100; i++ {
		packet.BuildInto(p, src.Next())
		a.add(p)
		if i == 42 {
			p.Bytes()[p.Len()-1] ^= 1
		}
		b.add(p)
	}
	if n, buckets := a.compare(&b); n == 0 || buckets != 1 {
		t.Errorf("one flipped payload byte: %d packets in %d buckets mismatched; want one bucket", n, buckets)
	}
	if n, _ := a.compare(&a); n != 0 {
		t.Errorf("a digest mismatches itself in %d packets", n)
	}
}

// smokePlan is a short run of every phase; an open loop needs 1.6 s
// at the slowest workload's 20 kpps to collect the 1000 bursts a p99
// needs.
var smokePlan = plan{
	setups:   2,
	openWarm: 100 * time.Millisecond, openMeasure: 1800 * time.Millisecond,
	traceMeasure: 1800 * time.Millisecond,
	closedWarm:   50 * time.Millisecond, closedMeasure: 300 * time.Millisecond,
	closedWin: 100 * time.Millisecond,
}

func TestSmokeEachWorkloadPassesTheGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o, err := bench(w, 5, smokePlan, true)
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct() {
				t.Fatalf("gate failed: %d of %d packets; %v", o.failed, o.attempted, o.problems)
			}
			for _, set := range [][]metric{endToEnd, perLayer} {
				for _, m := range set {
					if _, ok := o.r[m.name]; !ok {
						t.Errorf("metric %s not measured", m.name)
					}
				}
			}
			for _, name := range []string{"throughput_mpps", "latency_p50_us", "latency_p90_us", "latency_p99_us", "cpu_cores_at_rate", "heap_live_mb", "setup_s", "correct_ratio"} {
				if o.r[name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, o.r[name])
				}
			}
			if r := o.r["trace.decomposed_ratio"]; r < 0.9 {
				t.Errorf("traced run decomposed %.2f of sampled packets, want >= 0.9", r)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json at the
// repository root to the metric catalogue and workload table here.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []entry                      `json:"end_to_end"`
		PerLayer  []entry                      `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, dpbench %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bj.Workloads[i]
		rate := fmt.Sprintf("%d kpps", w.rate/1000)
		if got.Name != w.name || !strings.Contains(got.Why, rate) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), want %s with its open-loop rate %q", i, got.Name, got.Why, w.name, rate)
		}
	}
	check := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != (m.bound != 0) ||
				(g.Bound != nil && *g.Bound != m.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
