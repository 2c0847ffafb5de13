package dataplane

import (
	"fmt"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// shardSpec builds a distinct 5-tuple per flow index, spread over
// enough source addresses and ports that every shard of a small server
// receives traffic.
func shardSpec(flowID, seq int) packet.BuildSpec {
	sp := spec(byte(1+flowID%19), uint16(1000+flowID), fmt.Sprintf("f%d-p%d", flowID, seq))
	return sp
}

// runShardTraffic starts s, injects n packets built by mk while a
// collector drains and frees outputs (so sustained runs never outgrow
// the pool), stops, and returns the output count.
func runShardTraffic(t *testing.T, s *Server, n int, mk func(i int) packet.BuildSpec) int {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	for i := 0; i < n; i++ {
		if !s.Inject(buildInto(t, s, mk(i))) {
			t.Fatal("inject failed")
		}
	}
	s.Stop()
	return col.wait()
}

func TestShardSmoke(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 512})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFFirewall, 0)}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	got := runShardTraffic(t, s, n, func(i int) packet.BuildSpec {
		return shardSpec(i%40, i/40)
	})
	st := s.Stats()
	if st.Injected != n || st.Outputs != n || st.Drops != 0 {
		t.Fatalf("conservation: %+v", st)
	}
	if got != n {
		t.Fatalf("collected %d outputs, want %d", got, n)
	}
	if len(st.ShardIngress) != 4 {
		t.Fatalf("ShardIngress = %v, want 4 entries", st.ShardIngress)
	}
	var ingress uint64
	for sid, c := range st.ShardIngress {
		if c == 0 {
			t.Errorf("shard %d received no traffic (dispatch imbalance)", sid)
		}
		ingress += c
	}
	if ingress != n {
		t.Fatalf("shard ingress sums to %d, want %d", ingress, n)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestShardFlowAffinity is the flow-affinity property test: every
// packet of a 5-tuple executes on the shard its symmetric hash names,
// the assignment is stable across waves and burst sizes, and per-flow
// NF state exists only on the owning shard. The monitors are per-shard
// instances (AddGraphProvide), so -race additionally proves no NF state
// is ever touched from another shard's goroutine.
func TestShardFlowAffinity(t *testing.T) {
	for _, burst := range []int{1, 32} {
		t.Run(fmt.Sprintf("burst%d", burst), func(t *testing.T) {
			const shards = 4
			s := New(Config{Shards: shards, PoolSize: 512, Burst: burst})
			monitors := make([]*nf.Monitor, shards)
			for i := range monitors {
				monitors[i] = nf.NewMonitor()
			}
			g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFFirewall, 0)}}
			err := s.AddGraphProvide(1, g, func(shard int, node graph.NF) nf.NF {
				if node.Name == nfa.NFMonitor {
					return monitors[shard]
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			const flows = 60
			const waves = 3
			const perWave = 2
			got := runShardTraffic(t, s, flows*waves*perWave, func(i int) packet.BuildSpec {
				return shardSpec(i%flows, i/flows)
			})
			if got != flows*waves*perWave {
				t.Fatalf("collected %d outputs, want %d", got, flows*waves*perWave)
			}

			// Every flow's packets must all land on the shard its key
			// hashes to — and on no other shard.
			seen := make(map[packet.FlowKey]int)
			var total uint64
			for sid, m := range monitors {
				for _, rec := range m.Snapshot() {
					if want := s.ShardOfKey(rec.Key); want != sid {
						t.Errorf("flow %v observed on shard %d, hash names shard %d", rec.Key, sid, want)
					}
					if prev, dup := seen[rec.Key]; dup {
						t.Errorf("flow %v has state on shards %d and %d", rec.Key, prev, sid)
					}
					seen[rec.Key] = sid
					if rec.Stats.Packets != waves*perWave {
						t.Errorf("flow %v: %d packets on shard %d, want %d (packets strayed)",
							rec.Key, rec.Stats.Packets, sid, waves*perWave)
					}
					total += rec.Stats.Packets
				}
			}
			if len(seen) != flows {
				t.Fatalf("observed %d distinct flows, want %d", len(seen), flows)
			}
			if total != flows*waves*perWave {
				t.Fatalf("monitors counted %d packets, want %d", total, flows*waves*perWave)
			}
			// ShardOf (packet) and ShardOfKey (flow key) must agree, and
			// both directions of a flow hash to the same shard.
			for k, sid := range seen {
				if s.ShardOfKey(k.Reverse()) != sid {
					t.Errorf("flow %v: reverse direction hashes to a different shard", k)
				}
			}
			if leak := s.Pool().InUse(); leak != 0 {
				t.Fatalf("pool leak: %d buffers", leak)
			}
		})
	}
}

// TestShardInjectBatch drives the batched sharded ingress path: runs of
// same-shard packets dispatch as single ring enqueues, and everything
// still arrives exactly once.
func TestShardInjectBatch(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 512})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	const n = 960
	batch := make([]*packet.Packet, 0, 32)
	for i := 0; i < n; i++ {
		batch = append(batch, buildInto(t, s, shardSpec(i%48, i/48)))
		if len(batch) == cap(batch) {
			if got := s.InjectBatch(batch); got != len(batch) {
				t.Fatalf("InjectBatch = %d, want %d", got, len(batch))
			}
			batch = batch[:0]
		}
	}
	s.Stop()
	if got := col.wait(); got != n {
		t.Fatalf("collected %d outputs, want %d", got, n)
	}
	if st := s.Stats(); st.Injected != n || st.Outputs != n {
		t.Fatalf("conservation: %+v", st)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestShardUnroutable: sharded ingress takes ownership unconditionally,
// so packets no classifier rule routes are freed on the shard and
// counted unroutable — conservation and leak accounting stay exact.
func TestShardUnroutable(t *testing.T) {
	s := New(Config{Shards: 2, PoolSize: 128})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	// Route only TCP dport 80 (what spec builds); dport 81 classifies to
	// MID 9, which has no installed graph, and everything else matches
	// no rule at all — both flavors of unroutable.
	s.Classifier().Clear()
	s.Classifier().AddRule(Match{DstPort: 80}, 1)
	s.Classifier().AddRule(Match{DstPort: 81}, 9)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	const routable, dark = 100, 60
	for i := 0; i < routable; i++ {
		if !s.Inject(buildInto(t, s, shardSpec(i%10, i/10))) {
			t.Fatal("sharded Inject must accept ownership")
		}
	}
	for i := 0; i < dark; i++ {
		sp := shardSpec(i%10, i/10)
		sp.DstPort = 81 // classified to MID 9, which has no graph
		if !s.Inject(buildInto(t, s, sp)) {
			t.Fatal("sharded Inject must accept ownership")
		}
	}
	s.Stop()
	if got := col.wait(); got != routable {
		t.Fatalf("collected %d outputs, want %d", got, routable)
	}
	st := s.Stats()
	if st.Injected != routable || st.Outputs != routable || st.Unroutable != dark {
		t.Fatalf("injected=%d outputs=%d unroutable=%d, want %d/%d/%d",
			st.Injected, st.Outputs, st.Unroutable, routable, routable, dark)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers (unroutable packets must be freed)", leak)
	}
}

// TestShardedOutputs exercises the per-shard output channels: no fan-in
// goroutine, each consumer drains its own shard.
func TestShardedOutputs(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 512, ShardedOutputs: true})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if s.Output() != nil {
		t.Fatal("Output() must be nil with ShardedOutputs")
	}
	chans := s.Outputs()
	if len(chans) != 4 {
		t.Fatalf("Outputs() returned %d channels, want 4", len(chans))
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(chans))
	done := make(chan struct{})
	for i, ch := range chans {
		go func(i int, ch <-chan *packet.Packet) {
			for p := range ch {
				counts[i]++
				p.Free()
			}
			done <- struct{}{}
		}(i, ch)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if !s.Inject(buildInto(t, s, shardSpec(i%40, i/40))) {
			t.Fatal("inject failed")
		}
	}
	s.Stop()
	for range chans {
		<-done
	}
	total := 0
	for sid, c := range counts {
		if c == 0 {
			t.Errorf("shard %d output channel saw no packets", sid)
		}
		total += c
	}
	if total != n {
		t.Fatalf("shard outputs sum to %d, want %d", total, n)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestAddGraphInstancesRequiresSingleShard: a caller-provided instance
// cannot be shared across shards without breaking state locality.
func TestAddGraphInstancesRequiresSingleShard(t *testing.T) {
	s := New(Config{Shards: 2, PoolSize: 64})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	insts := map[graph.NF]nf.NF{nfn(nfa.NFMonitor, 0): nf.NewMonitor()}
	if err := s.AddGraphInstances(1, g, insts); err == nil {
		t.Fatal("AddGraphInstances with explicit instances must fail on a sharded server")
	}
	// Nil instance maps are fine — they are just AddGraph.
	if err := s.AddGraphInstances(1, g, nil); err != nil {
		t.Fatal(err)
	}
}

// TestShardPreclassified: InjectPreclassified resolves the shard from
// the flow hash, so cross-server ingress keeps flow affinity.
func TestShardPreclassified(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 256})
	monitors := make([]*nf.Monitor, 4)
	for i := range monitors {
		monitors[i] = nf.NewMonitor()
	}
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	err := s.AddGraphProvide(1, g, func(shard int, node graph.NF) nf.NF {
		return monitors[shard]
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	const n = 200
	for i := 0; i < n; i++ {
		pkt := buildInto(t, s, shardSpec(i%20, i/20))
		pkt.Meta.MID = 1
		pkt.Meta.PID = uint64(i + 1)
		pkt.Meta.Version = 1
		if !s.InjectPreclassified(pkt) {
			t.Fatal("preclassified inject failed")
		}
	}
	s.Stop()
	if got := col.wait(); got != n {
		t.Fatalf("collected %d outputs, want %d", got, n)
	}
	for sid, m := range monitors {
		for _, rec := range m.Snapshot() {
			if want := s.ShardOfKey(rec.Key); want != sid {
				t.Errorf("preclassified flow %v executed on shard %d, want %d", rec.Key, sid, want)
			}
		}
	}
}

func TestHashPIDSpreads(t *testing.T) {
	// Consecutive PIDs must land on different merger instances (mod 2)
	// reasonably evenly — the §6.3.3 load-balancing requirement.
	buckets := [2]int{}
	for pid := uint64(0); pid < 1000; pid++ {
		buckets[hashPID(pid)%2]++
	}
	if buckets[0] < 300 || buckets[1] < 300 {
		t.Errorf("PID hash badly skewed: %v", buckets)
	}
}
