package dataplane

import (
	"sync"
	"testing"
	"time"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// recordingObserver counts ObserveFlow calls for wiring tests.
type recordingObserver struct {
	mu    sync.Mutex
	calls int
	pkts  uint64
	bytes uint64
	flows map[packet.FlowKey]uint64
}

func (r *recordingObserver) ObserveFlow(k packet.FlowKey, pkts, bytes uint64) {
	r.mu.Lock()
	r.calls++
	r.pkts += pkts
	r.bytes += bytes
	if r.flows == nil {
		r.flows = map[packet.FlowKey]uint64{}
	}
	r.flows[k] += pkts
	r.mu.Unlock()
}

func TestFlowObserverSeesEveryPacketAtRate1(t *testing.T) {
	obs := &recordingObserver{}
	s := New(Config{PoolSize: 64, FlowAccount: obs, FlowSampleRate: 1})
	if err := s.AddGraph(1, graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}); err != nil {
		t.Fatal(err)
	}
	const n = 40
	runTraffic(t, s, n, func(i int) packet.BuildSpec {
		return spec(byte(i%4), uint16(2000+i%4), "x")
	})
	if obs.calls != n || obs.pkts != n {
		t.Fatalf("observer saw %d calls / %d pkts, want %d at rate 1", obs.calls, obs.pkts, n)
	}
	if len(obs.flows) != 4 {
		t.Fatalf("distinct flows = %d, want 4", len(obs.flows))
	}
	if obs.bytes == 0 {
		t.Fatalf("no bytes accounted")
	}
}

func TestFlowObserverSamplesAndScales(t *testing.T) {
	obs := &recordingObserver{}
	s := New(Config{PoolSize: 128, FlowAccount: obs, FlowSampleRate: 4})
	if err := s.AddGraph(1, graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}); err != nil {
		t.Fatal(err)
	}
	const n = 64
	runTraffic(t, s, n, func(i int) packet.BuildSpec {
		return spec(byte(i%2), uint16(3000+i%2), "x")
	})
	// PIDs are sequential from 1, so pid&3 == 0 selects exactly n/4.
	if obs.calls != n/4 {
		t.Fatalf("observer calls = %d, want %d (1 in 4)", obs.calls, n/4)
	}
	// Scaled: each observation credits the full sample rate.
	if obs.pkts != n {
		t.Fatalf("scaled pkts = %d, want %d", obs.pkts, n)
	}
}

func TestE2ELatencyHistogramAndRingCapacity(t *testing.T) {
	s := New(Config{PoolSize: 64, RingSize: 128, E2ESampleRate: 1})
	if err := s.AddGraph(3, graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range s.Output() {
			p.Free()
		}
	}()
	const n = 30
	for i := 0; i < n; i++ {
		pkt := buildInto(t, s, spec(byte(i%3), uint16(4000+i%3), "x"))
		pkt.Ingress = time.Now().UnixNano()
		if !s.Inject(pkt) {
			t.Fatal("classification failed")
		}
	}
	s.Stop()
	<-done
	fam := s.Telemetry().HistogramFamily("nfp_e2e_latency_ns")
	if len(fam) != 1 {
		t.Fatalf("e2e latency series = %d, want 1", len(fam))
	}
	hs := fam[0].H.Snapshot()
	if hs.Count != n {
		t.Fatalf("e2e samples = %d, want %d (rate 1, ingress stamped)", hs.Count, n)
	}
	if hs.Min == 0 && hs.Max == 0 {
		t.Fatalf("e2e latency all zero — ingress stamp not used")
	}
	snap := s.Telemetry().Snapshot()
	cap := snap.GaugeValue("nfp_nf_ring_capacity",
		telemetry.L("nf", "monitor"), telemetry.L("mid", "3"))
	if cap < 128 {
		t.Fatalf("ring capacity gauge = %d, want >= 128", cap)
	}
}

func TestE2EDisabledByDefault(t *testing.T) {
	s := New(Config{PoolSize: 64})
	if err := s.AddGraph(1, graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}); err != nil {
		t.Fatal(err)
	}
	runTraffic(t, s, 10, func(i int) packet.BuildSpec {
		return spec(byte(i), uint16(5000+i), "x")
	})
	if fam := s.Telemetry().HistogramFamily("nfp_e2e_latency_ns"); len(fam) != 0 {
		t.Fatalf("e2e latency recorded with E2ESampleRate unset")
	}
}
