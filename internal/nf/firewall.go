package nf

import (
	"fmt"
	"math/rand"
	"net/netip"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// DefaultACLSize is the evaluation firewall's rule count ("an Access
// Control List (ACL) containing 100 rules", §6.1).
const DefaultACLSize = 100

// ACLAction is a firewall rule's disposition.
type ACLAction uint8

const (
	// Allow passes matching packets.
	Allow ACLAction = iota
	// Deny drops matching packets.
	Deny
)

// ACLRule is one 5-tuple filter rule, first-match-wins. Prefixes match
// as netip.Prefix.Contains does: an unset, IPv6 or IPv4-mapped prefix
// covers no IPv4 flow.
type ACLRule struct {
	Src, Dst             netip.Prefix
	SrcPortLo, SrcPortHi uint16 // inclusive; 0,0xffff = any
	DstPortLo, DstPortHi uint16
	Proto                uint8 // 0 = any
	Action               ACLAction
}

// header compiles the rule's addresses and protocol to packed FlowKey
// form, with an unset prefix as a wildcard.
func (r ACLRule) header() packet.FlowMatch {
	return packet.NewFlowMatch(r.Src, r.Dst, 0, 0, r.Proto)
}

// coversRest checks what the header leaves out: the port ranges, and
// that neither prefix is unset.
func (r *ACLRule) coversRest(k packet.FlowKey) bool {
	return r.Src.IsValid() && r.Dst.IsValid() &&
		k.SrcPort >= r.SrcPortLo && k.SrcPort <= r.SrcPortHi &&
		k.DstPort >= r.DstPortLo && k.DstPort <= r.DstPortHi
}

// Firewall is a stateless packet filter "similar to the Click IPFilter
// element. It passes or drops packets according to the ACL" (§6.1).
type Firewall struct {
	rules   []ACLRule
	headers []packet.FlowMatch // rules[i]'s header, compiled once
	def     ACLAction
	passed  uint64
	dropped uint64
}

// NewFirewall builds a firewall with n synthetic deny rules over the
// 172.16.0.0/12 space (so default generator traffic in 10/8 passes)
// and a default-allow policy. All instances share the same seed.
func NewFirewall(n int) (*Firewall, error) {
	if n < 0 {
		return nil, fmt.Errorf("firewall: negative rule count %d", n)
	}
	rng := rand.New(rand.NewSource(0xac1))
	rules := make([]ACLRule, n)
	for i := range rules {
		src := netip.AddrFrom4([4]byte{172, byte(16 + rng.Intn(16)), byte(rng.Intn(256)), 0})
		pfx, _ := src.Prefix(24)
		rules[i] = ACLRule{
			Src: pfx, Dst: netip.MustParsePrefix("0.0.0.0/0"),
			SrcPortLo: 0, SrcPortHi: 0xffff,
			DstPortLo: 0, DstPortHi: 0xffff,
			Action: Deny,
		}
	}
	return NewFirewallFromRules(rules, Allow), nil
}

// NewFirewallFromRules builds a firewall from an explicit ACL.
func NewFirewallFromRules(rules []ACLRule, def ACLAction) *Firewall {
	fw := &Firewall{rules: rules, headers: make([]packet.FlowMatch, len(rules)), def: def}
	for i, r := range rules {
		fw.headers[i] = r.header()
	}
	return fw
}

// Name implements NF.
func (fw *Firewall) Name() string { return nfa.NFFirewall }

// Profile implements NF.
func (fw *Firewall) Profile() nfa.Profile { return profileFor(nfa.NFFirewall) }

// decide walks the ACL first-match-wins: the compiled headers filter,
// and only a header hit checks the rest of its rule.
func (fw *Firewall) decide(fk packet.FlowKey) ACLAction {
	for i := 0; i < len(fw.rules); i++ {
		j := packet.FirstMatch(fw.headers[i:], fk)
		if j < 0 {
			break
		}
		i += j
		if fw.rules[i].coversRest(fk) {
			return fw.rules[i].Action
		}
	}
	return fw.def
}

// Process applies the ACL's decision for the packet's flow.
func (fw *Firewall) Process(p *packet.Packet) Verdict {
	fk, err := p.FlowKey()
	if err != nil {
		fw.dropped++
		return Drop // unparseable traffic is dropped, like a real filter
	}
	if fw.decide(fk) == Deny {
		fw.dropped++
		return Drop
	}
	fw.passed++
	return Pass
}

// Stats returns (passed, dropped) packet counts.
func (fw *Firewall) Stats() (passed, dropped uint64) { return fw.passed, fw.dropped }
