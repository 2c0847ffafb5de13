// Package nf defines the network function interface and the NF
// implementations used in the paper's evaluation (§6.1): L3 Forwarder,
// Load Balancer, Firewall, IDS, VPN and Monitor, plus NAT and the
// synthetic busy-loop NF of Figure 9.
//
// Each NF exposes the action profile the orchestrator reasons about;
// the dataplane calls Process from the NF's own runtime goroutine, so
// implementations may keep unsynchronized per-instance state (this
// models the paper's one-container-per-core deployment).
package nf

import (
	"fmt"
	"sort"
	"sync"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// Verdict is the outcome of processing one packet.
type Verdict uint8

const (
	// Pass forwards the packet downstream.
	Pass Verdict = iota
	// Drop discards the packet; the NF runtime conveys the intention
	// to the merger with a nil packet (§5.2 "ignore").
	Drop
)

func (v Verdict) String() string {
	if v == Drop {
		return "drop"
	}
	return "pass"
}

// NF is a network function instance. Instances are single-goroutine:
// the runtime serializes Process calls.
type NF interface {
	// Name returns the NF type name (matching its catalog profile).
	Name() string
	// Profile returns the action profile used for parallelism
	// identification.
	Profile() nfa.Profile
	// Process handles one packet in place and returns a verdict.
	Process(p *packet.Packet) Verdict
}

// Factory constructs a fresh NF instance. Every instance must be
// independent (own state), mirroring per-container NF deployment.
type Factory func() (NF, error)

// Registry maps NF type names to factories. The zero value is unusable;
// use NewRegistry, which pre-registers the evaluation NFs.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns a registry with the evaluation NFs registered
// under their nfa catalog names.
func NewRegistry() *Registry {
	r := &Registry{factories: map[string]Factory{}}
	r.MustRegister(nfa.NFL3Fwd, func() (NF, error) { return NewL3Forwarder(DefaultRouteCount) })
	r.MustRegister(nfa.NFLB, func() (NF, error) { return NewLoadBalancer(DefaultBackendCount) })
	r.MustRegister(nfa.NFFirewall, func() (NF, error) { return NewFirewall(DefaultACLSize) })
	r.MustRegister(nfa.NFIDS, func() (NF, error) { return NewIDS(DefaultSignatureCount, true) })
	r.MustRegister(nfa.NFNIDS, func() (NF, error) { return NewIDS(DefaultSignatureCount, false) })
	r.MustRegister(nfa.NFVPN, func() (NF, error) { return NewVPN(nil) })
	r.MustRegister(nfa.NFMonitor, func() (NF, error) { return NewMonitor(), nil })
	r.MustRegister(nfa.NFNAT, func() (NF, error) { return NewNAT() })
	r.MustRegister(nfa.NFSynthetic, func() (NF, error) { return NewSynthetic(300), nil })
	r.MustRegister(nfa.NFGateway, func() (NF, error) { return NewGateway(), nil })
	r.MustRegister(nfa.NFCaching, func() (NF, error) { return NewCache(1024), nil })
	r.MustRegister(nfa.NFProxy, func() (NF, error) { return NewProxy(4) })
	r.MustRegister(nfa.NFCompress, func() (NF, error) { return NewCompressor(0) })
	r.MustRegister(nfa.NFShaper, func() (NF, error) { return NewShaper(0, 0), nil })
	return r
}

// Register adds a factory for name, replacing any previous one.
func (r *Registry) Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("nf: invalid registration for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[name] = f
	return nil
}

// MustRegister is Register that panics on error (init-time use).
func (r *Registry) MustRegister(name string, f Factory) {
	if err := r.Register(name, f); err != nil {
		panic(err)
	}
}

// New instantiates the NF type registered under name.
func (r *Registry) New(name string) (NF, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("nf: unknown NF type %q", name)
	}
	return f()
}

// Names returns the registered NF type names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// profileFor fetches the catalog profile for an NF name, panicking on
// unknown names — implementations only reference catalog entries.
func profileFor(name string) nfa.Profile {
	p, ok := nfa.LookupProfile(name)
	if !ok {
		panic(fmt.Sprintf("nf: no catalog profile for %q", name))
	}
	return p
}
