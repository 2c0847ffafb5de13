// Modular NFs (OpenBox+NFP, §7 / Figure 15): decompose a firewall and
// an IPS into building blocks, share the common header classifier, and
// let NFP parallelize the independent blocks — the firewall's filter
// block, the DPI block, and the IPS's verdict block run simultaneously
// instead of as a four-stage pipeline.
//
// This also demonstrates registering custom NFs: each block implements
// the NF interface with its own action profile, and the same
// orchestrator compiles block-level policies.
//
//	go run ./examples/modular
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"nfp"
	"nfp/internal/ahocorasick"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// block adapts a per-packet function plus a declared action profile
// into the NF interface — the shape of an OpenBox processing block.
type block struct {
	name    string
	profile nfp.Profile
	process func(*packet.Packet) nf.Verdict
	count   uint64
}

func (b *block) Name() string         { return b.name }
func (b *block) Profile() nfp.Profile { return b.profile }
func (b *block) Process(p *packet.Packet) nf.Verdict {
	b.count++
	return b.process(p)
}

func tupleProfile(extra ...nfp.Action) nfp.Profile {
	actions := []nfp.Action{
		nfp.ReadAction(nfp.FieldSrcIP), nfp.ReadAction(nfp.FieldDstIP),
		nfp.ReadAction(nfp.FieldSrcPort), nfp.ReadAction(nfp.FieldDstPort),
	}
	return nfp.Profile{Actions: append(actions, extra...)}
}

func main() {
	sys := nfp.NewSystem()

	// --- The building blocks (Figure 15) ---

	// hdrcls: the header classifier both the firewall and the IPS
	// contain; after OpenBox-style decomposition it is shared.
	classes := map[packet.FlowKey]int{}
	hdrcls := &block{
		name:    "hdrcls",
		profile: tupleProfile(),
		process: func(p *packet.Packet) nf.Verdict {
			if k, err := p.FlowKey(); err == nil {
				classes[k] = int(k.Hash() % 4)
			}
			return nf.Pass
		},
	}

	// fwfilter: the firewall's filtering block (reads the tuple, may
	// drop — here it blocks destination port 23).
	fwfilter := &block{
		name:    "fwfilter",
		profile: tupleProfile(nfp.DropAction()),
		process: func(p *packet.Packet) nf.Verdict {
			if p.DstPort() == 23 {
				return nf.Drop
			}
			return nf.Pass
		},
	}

	// dpi: deep packet inspection shared scanner.
	sigs := ahocorasick.New([][]byte{[]byte("EVIL-PAYLOAD")})
	dpiHits := 0
	dpi := &block{
		name:    "dpi",
		profile: nfp.Profile{Actions: []nfp.Action{nfp.ReadAction(nfp.FieldPayload)}},
		process: func(p *packet.Packet) nf.Verdict {
			if sigs.Contains(p.Payload()) {
				dpiHits++
			}
			return nf.Pass
		},
	}

	// ipsverdict: the IPS's drop decision over the payload.
	ipsverdict := &block{
		name:    "ipsverdict",
		profile: nfp.Profile{Actions: []nfp.Action{nfp.ReadAction(nfp.FieldPayload), nfp.DropAction()}},
		process: func(p *packet.Packet) nf.Verdict {
			if sigs.Contains(p.Payload()) {
				return nf.Drop
			}
			return nf.Pass
		},
	}

	for _, b := range []*block{hdrcls, fwfilter, dpi, ipsverdict} {
		bb := b
		if err := sys.RegisterNF(bb.name, bb.profile, func() (nfp.NetworkFunction, error) {
			return bb, nil
		}); err != nil {
			log.Fatal(err)
		}
	}

	// --- Block-level policy ---
	//
	// The OpenBox pipeline would run hdrcls → fwfilter → dpi →
	// ipsverdict sequentially (equivalent length 4). With NFP the
	// operator pins the shared classifier first, keeps the DPI→verdict
	// order, and declares the firewall/IPS conflict resolution of §3:
	// Priority(ipsverdict > fwfilter).
	pol := nfp.Policy{Rules: []nfp.Rule{
		nfp.Position("hdrcls", nfp.First),
		nfp.Order("dpi", "ipsverdict"),
		nfp.Priority("ipsverdict", "fwfilter"),
	}}
	res, err := sys.Compile(pol, nfp.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OpenBox pipeline:   (hdrcls -> fwfilter -> dpi -> ipsverdict), length 4\n")
	fmt.Printf("OpenBox+NFP graph:  %s, length %d, copies %d\n\n",
		res.Graph, nfp.EquivalentLength(res.Graph), nfp.TotalCopies(res.Graph))
	for _, w := range res.Warnings {
		fmt.Println("compiler note:", w)
	}

	// --- Run it ---
	srv := sys.NewServer(nfp.ServerConfig{PoolSize: 256})
	if err := srv.AddGraph(1, res.Graph); err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	outputs := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range srv.Output() {
			outputs++
			p.Free()
		}
	}()
	const total = 3000
	for i := 0; i < total; i++ {
		pkt := srv.Pool().Get()
		for pkt == nil {
			time.Sleep(time.Microsecond)
			pkt = srv.Pool().Get()
		}
		spec := nfp.BuildSpec{
			SrcIP:   netip.AddrFrom4([4]byte{10, 0, 1, byte(i % 8)}),
			DstIP:   netip.MustParseAddr("10.2.0.1"),
			SrcPort: uint16(2000 + i%32),
			DstPort: 80,
			Payload: []byte("regular web traffic"),
		}
		switch {
		case i%7 == 0:
			spec.DstPort = 23 // firewall filter hit
		case i%11 == 0:
			spec.Payload = []byte("xx EVIL-PAYLOAD xx") // IPS hit
		}
		nfp.BuildPacketInto(pkt, spec)
		if !srv.Inject(pkt) {
			log.Fatal("classification failed")
		}
	}
	srv.Stop()
	<-done

	st := srv.Stats()
	fmt.Printf("injected:      %d\n", st.Injected)
	fmt.Printf("delivered:     %d\n", outputs)
	fmt.Printf("dropped:       %d (port-23 by fwfilter, signatures by ipsverdict)\n", st.Drops)
	fmt.Printf("block counts:  hdrcls=%d fwfilter=%d dpi=%d ipsverdict=%d\n",
		hdrcls.count, fwfilter.count, dpi.count, ipsverdict.count)
	fmt.Printf("dpi hits:      %d (alert-only block, ran in parallel with the verdict)\n", dpiHits)
	fmt.Printf("flow classes:  %d flows classified by the shared block\n", len(classes))
}
