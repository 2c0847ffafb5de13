package equivalence

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// ExecReloadOptions pins an ExecuteReload run.
type ExecReloadOptions struct {
	// Shards is the dataplane shard count (1 = the classic layout).
	Shards int
	// Burst is the dataplane burst size (<=1 runs the scalar path).
	Burst int
	// Fusion selects the execution engine (FusionAuto = server default).
	Fusion dataplane.FusionMode
	// Reloads is how many mid-stream reloads to fire, evenly spaced
	// across the injection window (default 1).
	Reloads int
	// DisableFlowCache ablates the classifier's microflow cache (see
	// ExecShardOptions.DisableFlowCache).
	DisableFlowCache bool
	// RuleSplit installs the graph under MID 2 as well and splits
	// traffic with DstPort rules (see ExecShardOptions.RuleSplit), so
	// reload-time cache invalidation is exercised against a populated
	// cache rather than the empty-table bypass.
	RuleSplit bool
}

// ExecuteReload is ExecuteSharded with live reconfiguration injected
// mid-stream: it replays the same n deterministic packets through g,
// but opts.Reloads times during injection the server hot-swaps to a
// freshly compiled plan of the SAME policy — new config generation,
// new rings, new SynNF instances — while traffic keeps flowing through
// the swap and the old generation's drain.
//
// The returned observations aggregate over every generation's
// instances, exactly like ExecuteSharded aggregates over shards. A
// reload-equivalence differential — ExecuteReload equal to a no-reload
// ExecuteSharded run of the same seed — is therefore the §4.1
// result-correctness statement for reconfiguration: a zero-downtime
// reload is observationally invisible. Packets lost, duplicated,
// rerouted to half-built tables, or finalized against the wrong
// generation's merge specs all surface as digest differences; pool
// leaks and unroutable packets fail the run outright.
func (t *Trial) ExecuteReload(g graph.Node, n int, trafficSeed int64, opts ExecReloadOptions) (*ShardedRun, error) {
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	reloads := opts.Reloads
	if reloads < 1 {
		reloads = 1
	}
	var synMu sync.Mutex
	syns := make(map[string][]*SynNF, len(t.Profiles))
	provide := func(shard int, node graph.NF) nf.NF {
		s := NewSynNF(node.Name, t.Profiles[node.Name])
		synMu.Lock()
		syns[node.Name] = append(syns[node.Name], s)
		synMu.Unlock()
		return s
	}
	srv := dataplane.New(dataplane.Config{
		PoolSize:         512 * shards,
		Mergers:          2,
		Burst:            opts.Burst,
		Shards:           shards,
		Fusion:           opts.Fusion,
		DisableFlowCache: opts.DisableFlowCache,
	})
	if err := srv.AddGraphProvide(1, g, provide); err != nil {
		return nil, err
	}
	if opts.RuleSplit {
		if err := installRuleSplit(srv, g, provide); err != nil {
			return nil, err
		}
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	res := &ShardedRun{
		FlowDigests:    map[packet.FlowKey]uint64{},
		FlowCounts:     map[packet.FlowKey]uint64{},
		ContentDigests: map[string]uint64{},
		Processed:      map[string]uint64{},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range srv.Output() {
			k, _ := p.FlowKey() // the zero key on a parse error
			h := fnv.New64a()
			h.Write(p.Bytes())
			res.FlowDigests[k] += h.Sum64()
			res.FlowCounts[k]++
			res.Outputs++
			p.Free()
		}
	}()

	// Reloads fire asynchronously at evenly spaced injection indices,
	// so the swap and the old generation's drain genuinely overlap live
	// injection (a synchronous reload would pause the injector — that
	// is the restart model this exists to disprove).
	reloadErrs := make(chan error, reloads)
	fired := 0
	maybeReload := func(i int) {
		for fired < reloads && i >= (fired+1)*n/(reloads+1) {
			fired++
			go func() { reloadErrs <- srv.ReloadProvide(1, g, provide) }()
		}
	}

	rng := rand.New(rand.NewSource(trafficSeed))
	if opts.Burst <= 1 {
		for i := 0; i < n; i++ {
			maybeReload(i)
			pkt := srv.Pool().Get()
			for pkt == nil {
				pkt = srv.Pool().Get()
			}
			buildRandomPacket(pkt, rng)
			if !srv.Inject(pkt) {
				return nil, fmt.Errorf("classification failed")
			}
		}
	} else {
		batch := make([]*packet.Packet, opts.Burst)
		for i := 0; i < n; {
			maybeReload(i)
			want := opts.Burst
			if n-i < want {
				want = n - i
			}
			got := srv.Pool().AllocBatch(batch[:want])
			for got == 0 {
				got = srv.Pool().AllocBatch(batch[:want])
			}
			for j := 0; j < got; j++ {
				buildRandomPacket(batch[j], rng)
			}
			if acc := srv.InjectBatch(batch[:got]); acc != got {
				return nil, fmt.Errorf("batch classification failed: %d of %d", acc, got)
			}
			i += got
		}
	}
	for ; fired < reloads; fired++ {
		// Degenerate spacing (tiny n): fire the stragglers now rather
		// than silently running fewer reloads than asked.
		go func() { reloadErrs <- srv.ReloadProvide(1, g, provide) }()
	}
	for i := 0; i < reloads; i++ {
		if err := <-reloadErrs; err != nil {
			return nil, fmt.Errorf("mid-stream reload: %w", err)
		}
	}
	if gen := srv.Generation(); gen != uint64(1+reloads) {
		return nil, fmt.Errorf("generation = %d after %d reloads, want %d", gen, reloads, 1+reloads)
	}
	srv.Stop()
	<-done
	st := srv.Stats()
	if err := auditConservation(srv, st); err != nil {
		return nil, err
	}
	res.Drops = st.Drops
	res.Copies = st.Copies
	if st.Unroutable != 0 {
		return nil, fmt.Errorf("%d packets unroutable (test traffic must all classify)", st.Unroutable)
	}
	synMu.Lock()
	defer synMu.Unlock()
	for name, insts := range syns {
		for _, s := range insts {
			res.ContentDigests[name] += s.ContentDigest()
			p, _ := s.Counts()
			res.Processed[name] += p
		}
	}
	if leak := srv.Pool().InUse(); leak != 0 {
		return nil, fmt.Errorf("pool leak after drained stop: %d buffers", leak)
	}
	return res, nil
}
