package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/trafficgen"
)

// source yields the packet specs of one workload, deterministically
// from its seed. The program under test only ever sees the packets
// built from these specs.
type source interface {
	Next() packet.BuildSpec
}

// workload is one named traffic mix with its service chain.
type workload struct {
	name string
	// rate is the fixed open-loop offered load, packets per second.
	rate int
	// chain is the policy's NF order; graphs are compiled from it.
	chain []string
	// sequential pins the live graph to the sequential composition,
	// as in Fig 7, where the orchestrator would otherwise run the
	// independent forwarders in parallel.
	sequential bool
	// rules installs the 255 never-matching rules plus a catch-all,
	// so the microflow cache engages; without it only the default
	// route exists and the cache is bypassed.
	rules bool
	// newSource returns a fresh packet sequence for a seed.
	newSource func(seed int64) source
}

// ruleCount is the classifier table size of the rule workloads:
// 255 never-matching rules ahead of one catch-all.
const ruleCount = 256

var workloads = []*workload{
	{
		name:       "fwd5_64b",
		rate:       50_000,
		chain:      []string{"l3fwd.1", "l3fwd.2", "l3fwd.3", "l3fwd.4", "l3fwd.5"},
		sequential: true,
		newSource: func(seed int64) source {
			return trafficgen.New(trafficgen.Config{Flows: 64, Sizes: trafficgen.Fixed(64), Seed: seed})
		},
	},
	{
		name:  "northsouth_dc",
		rate:  20_000,
		chain: []string{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB},
		rules: true,
		newSource: func(seed int64) source {
			return trafficgen.New(trafficgen.Config{
				Flows: 4096, Sizes: trafficgen.NewDataCenter(seed), Seed: seed, Zipf: 1.1,
			})
		},
	},
	{
		name:      "westeast_flood",
		rate:      40_000,
		chain:     []string{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB},
		rules:     true,
		newSource: func(seed int64) source { return newFlood(seed) },
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// nfType strips an instance alias: "l3fwd.3" is an instance of l3fwd.
// A policy names each NF once, so a chain of five forwarders is
// written with five aliases and mapped back to instances after
// compilation.
func nfType(alias string) string {
	t, _, _ := strings.Cut(alias, ".")
	return t
}

func aliasProfile(alias string) (nfa.Profile, bool) {
	p, ok := nfa.LookupProfile(nfType(alias))
	p.Name = alias
	return p, ok
}

// compile runs the orchestrator on the workload's chain: the graph the
// workload runs live, or with reference set the paper's sequential
// composition the correctness gate compares against.
func (w *workload) compile(reference bool) (graph.Node, error) {
	opts := core.Options{NoParallelism: reference || w.sequential}
	res, err := core.Compile(policy.FromChain(w.chain...), aliasProfile, opts)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", w.name, err)
	}
	return unalias(res.Graph), nil
}

// unalias maps aliased NF nodes back to numbered instances of their type.
func unalias(n graph.Node) graph.Node {
	switch n := n.(type) {
	case graph.NF:
		t, inst, ok := strings.Cut(n.Name, ".")
		if !ok {
			return n
		}
		var i int
		fmt.Sscan(inst, &i)
		return graph.NF{Name: t, Instance: i - 1}
	case graph.Seq:
		items := make([]graph.Node, len(n.Items))
		for i, it := range n.Items {
			items[i] = unalias(it)
		}
		return graph.Seq{Items: items}
	case graph.Par:
		br := make([]graph.Node, len(n.Branches))
		for i, b := range n.Branches {
			br[i] = unalias(b)
		}
		n.Branches = br
		return n
	}
	return n
}

// installRules programs the classifier: the rule workloads get 255
// rules no generated packet matches (all traffic is in 10/8) and a
// catch-all rule to MID 1 behind them.
func (w *workload) installRules(c *dataplane.Classifier) {
	if !w.rules {
		return
	}
	for i := 0; i < ruleCount-1; i++ {
		c.AddRule(dataplane.Match{
			SrcPrefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 168, byte(i), 0}), 24),
			DstPort:   uint16(8000 + i),
		}, 2)
	}
	c.AddRule(dataplane.Match{}, 1)
}

// floodBits is the width of the flood's 5-tuple space: 24 bits of
// source address below 10/8 and 15 bits of source port.
const floodBits = 39

// flood is the west-east hostile mix: every packet opens a new 5-tuple
// that never repeats within 2^39 packets. Index i maps to the tuple
// through i*mul+add mod 2^39, a bijection for odd mul, so the order
// depends on the seed but uniqueness does not.
type flood struct {
	i, mul, add uint64
}

func newFlood(seed int64) *flood {
	r := rand.New(rand.NewSource(seed))
	return &flood{mul: uint64(r.Int63()) | 1, add: uint64(r.Int63())}
}

func (f *flood) Next() packet.BuildSpec {
	x := (f.i*f.mul + f.add) & (1<<floodBits - 1)
	f.i++
	return packet.BuildSpec{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(x >> 31), byte(x >> 23), byte(x >> 15)}),
		DstIP:   netip.AddrFrom4([4]byte{10, 100, 0, 1}),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(0x8000 | x&0x7fff),
		DstPort: 80,
		TTL:     64,
		Size:    64,
	}
}
