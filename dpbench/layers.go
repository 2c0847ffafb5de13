package main

import (
	"fmt"
	"time"

	"nfp/internal/dataplane"
	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// standaloneN is how many of the workload's packets each standalone
// layer timing cycles through.
const standaloneN = 1024

// layerBudget is how long each standalone timing repeats its pass.
const layerBudget = 100 * time.Millisecond

// perPacket repeats prepare (untimed) then pass (timed) over n packets
// until layerBudget is spent and returns the mean ns per packet.
func perPacket(n int, prepare, pass func()) float64 {
	var spent time.Duration
	passes := 0
	for spent < layerBudget || passes < 3 {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		pass()
		spent += time.Since(t0)
		passes++
	}
	return float64(spent.Nanoseconds()) / float64(passes*n)
}

// standalone times each layer the packet crosses, called directly
// from outside the dataplane on the workload's own packets and rule
// table: the costs the traced stages reconcile against.
func standalone(w *workload, seed int64, r results) error {
	pool := mempool.New(2*standaloneN+1, 2048)
	src := w.newSource(seed)
	pristine := make([]*packet.Packet, standaloneN)
	work := make([]*packet.Packet, standaloneN)
	for i := range pristine {
		pristine[i], work[i] = pool.Get(), pool.Get()
		packet.BuildInto(pristine[i], src.Next())
		if err := pristine[i].Parse(); err != nil {
			return fmt.Errorf("standalone: packet %d: %w", i, err)
		}
	}
	scratch := pool.Get()
	restore := func() {
		for i, p := range pristine {
			p.CloneInto(work[i])
			_, _ = work[i].FlowKey()
		}
	}

	bufs := mempool.New(4*burst, 2048)
	batch := make([]*packet.Packet, burst)
	r["mempool.alloc_free_ns"] = perPacket(standaloneN, nil, func() {
		for i := 0; i < standaloneN; i += burst {
			got := bufs.AllocBatch(batch)
			bufs.FreeBatch(batch[:got])
		}
	})

	r["packet.parse_ns"] = perPacket(standaloneN, nil, func() {
		for _, p := range work {
			p.Invalidate()
			_ = p.Parse()
			_, _ = p.FlowKey()
		}
	})
	r["packet.copy_header_ns"] = perPacket(standaloneN, nil, func() {
		for _, p := range pristine {
			packet.HeaderOnlyCopy(p, scratch, 2)
		}
	})

	// The classifier of an installed, never-started server: the
	// workload's rule table and the shard-0 microflow cache.
	g, err := w.compile(false)
	if err != nil {
		return err
	}
	srv := dataplane.New(serverConfig(0, 0))
	w.installRules(srv.Classifier())
	if err := srv.AddGraph(1, g); err != nil {
		return fmt.Errorf("standalone classifier: %w", err)
	}
	c := srv.Classifier()
	classifyAll := func() {
		for i := 0; i < standaloneN; i += burst {
			c.ClassifyBatch(work[i : i+burst])
		}
	}
	restore()
	classifyAll() // warm the cache
	r["classifier.classify_hit_ns"] = perPacket(standaloneN, nil, classifyAll)
	pass := 0
	r["classifier.classify_miss_ns"] = perPacket(standaloneN, func() {
		// Never-seen flows: a fresh source port per packet within the
		// pass, and an empty cache.
		pass++
		for i, p := range work {
			p.SetSrcPort(uint16(pass*standaloneN + i))
		}
		c.InvalidateCache()
	}, classifyAll)

	for _, name := range nfNames {
		inst, err := nf.NewRegistry().New(name)
		if err != nil {
			return fmt.Errorf("standalone %s: %w", name, err)
		}
		r["nf."+name+".process_ns"] = perPacket(standaloneN, restore, func() {
			for _, p := range work {
				inst.Process(p)
			}
		})
	}
	for _, p := range append(pristine, work...) {
		p.Free()
	}
	scratch.Free()
	return nil
}
