package nf_test

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"nfp/internal/dataplane"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// The reference matchers below are the netip-based rule logic the
// compiled FlowKey matchers replaced: each widens the key to netip
// addresses and tests prefixes with netip.Prefix.Contains. They exist
// only here, as the oracle for TestCompiledMatchersAgreeWithNetip.

func refCovers(m dataplane.Match, k packet.FlowKey) bool {
	src, dst := netip.AddrFrom4(k.Src), netip.AddrFrom4(k.Dst)
	if m.SrcPrefix.IsValid() && !m.SrcPrefix.Contains(src) {
		return false
	}
	if m.DstPrefix.IsValid() && !m.DstPrefix.Contains(dst) {
		return false
	}
	if m.SrcPort != 0 && m.SrcPort != k.SrcPort {
		return false
	}
	if m.DstPort != 0 && m.DstPort != k.DstPort {
		return false
	}
	return m.Proto == 0 || m.Proto == k.Proto
}

func refACL(r nf.ACLRule, k packet.FlowKey) bool {
	return r.Src.Contains(netip.AddrFrom4(k.Src)) && r.Dst.Contains(netip.AddrFrom4(k.Dst)) &&
		k.SrcPort >= r.SrcPortLo && k.SrcPort <= r.SrcPortHi &&
		k.DstPort >= r.DstPortLo && k.DstPort <= r.DstPortHi &&
		(r.Proto == 0 || r.Proto == k.Proto)
}

func refIDSHeader(r nf.IDSRule, k packet.FlowKey) bool {
	return refCovers(dataplane.Match{
		SrcPrefix: r.Src, DstPrefix: r.Dst,
		SrcPort: r.SrcPort, DstPort: r.DstPort, Proto: r.Proto,
	}, k)
}

// aclRuleMatches reports whether r alone covers k's flow, as a
// one-rule deny ACL in front of a default-allow firewall decides it.
func aclRuleMatches(r nf.ACLRule, k packet.FlowKey) bool {
	r.Action = nf.Deny
	return nf.NewFirewallFromRules([]nf.ACLRule{r}, nf.Allow).Process(buildKey(k, nil)) == nf.Drop
}

// matchGen draws rule fields and keys that often sit on the rule's
// edges: prefix boundaries, equal ports, range ends.
type matchGen struct{ rng *rand.Rand }

func (g matchGen) addr4() [4]byte {
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], g.rng.Uint32())
	if g.rng.Intn(2) == 0 {
		a[0] = 10 // cluster half the addresses so prefixes overlap keys
	}
	return a
}

// prefix returns IPv4 prefixes of every length (host bits left set
// half the time) plus unset, IPv6, IPv4-mapped IPv6 and invalid ones.
func (g matchGen) prefix() netip.Prefix {
	switch g.rng.Intn(10) {
	case 0:
		return netip.Prefix{}
	case 1:
		var a [16]byte
		g.rng.Read(a[:])
		return netip.PrefixFrom(netip.AddrFrom16(a), g.rng.Intn(129))
	case 2:
		a := netip.AddrFrom16(netip.AddrFrom4(g.addr4()).As16()) // ::ffff:a.b.c.d
		return netip.PrefixFrom(a, 80+g.rng.Intn(49))
	case 3:
		return netip.PrefixFrom(netip.AddrFrom4(g.addr4()), 33) // invalid
	}
	p := netip.PrefixFrom(netip.AddrFrom4(g.addr4()), g.rng.Intn(33))
	if g.rng.Intn(2) == 0 {
		p = p.Masked()
	}
	return p
}

// near returns an address on or just across p's boundary when p is an
// IPv4 prefix, else a random address.
func (g matchGen) near(p netip.Prefix) [4]byte {
	if !p.IsValid() || !p.Addr().Is4() || g.rng.Intn(4) == 0 {
		return g.addr4()
	}
	a := p.Masked().Addr().As4()
	first := uint64(binary.BigEndian.Uint32(a[:]))
	last := first + 1<<(32-p.Bits()) - 1
	var v uint64
	switch g.rng.Intn(5) {
	case 0:
		v = first
	case 1:
		v = last
	case 2:
		v = first - 1
	case 3:
		v = last + 1
	default:
		v = first + uint64(g.rng.Int63n(int64(last-first+1)))
	}
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], uint32(v))
	return out
}

var edgePorts = []uint16{0, 1, 53, 79, 80, 81, 443, 65535}

func (g matchGen) port() uint16 {
	if g.rng.Intn(4) == 0 {
		return uint16(g.rng.Intn(1 << 16))
	}
	return edgePorts[g.rng.Intn(len(edgePorts))]
}

// ruleProto is a wildcard a third of the time.
func (g matchGen) ruleProto() uint8 {
	return []uint8{0, 0, packet.ProtoTCP, packet.ProtoUDP, 1}[g.rng.Intn(5)]
}

func (g matchGen) key(src, dst netip.Prefix, protos []uint8) packet.FlowKey {
	return packet.FlowKey{
		Src: g.near(src), Dst: g.near(dst),
		SrcPort: g.port(), DstPort: g.port(),
		Proto: protos[g.rng.Intn(len(protos))],
	}
}

// buildKey builds a TCP or UDP packet whose flow key is k.
func buildKey(k packet.FlowKey, payload []byte) *packet.Packet {
	return packet.Build(packet.BuildSpec{
		SrcIP: netip.AddrFrom4(k.Src), DstIP: netip.AddrFrom4(k.Dst),
		Proto: k.Proto, SrcPort: k.SrcPort, DstPort: k.DstPort,
		Payload: payload,
	})
}

// TestCompiledMatchersAgreeWithNetip checks the packed FlowKey matchers
// of dataplane.Match, nf.ACLRule (alone and as a firewall's ACL) and the
// rule IDS's headers against the netip reference over random rules and
// keys.
func TestCompiledMatchersAgreeWithNetip(t *testing.T) {
	g := matchGen{rand.New(rand.NewSource(12))}
	anyProto := []uint8{packet.ProtoTCP, packet.ProtoUDP, 1, 47}

	var covered, aclHits, idsHits int
	for i := 0; i < 4000; i++ {
		m := dataplane.Match{
			SrcPrefix: g.prefix(), DstPrefix: g.prefix(),
			Proto: g.ruleProto(),
		}
		if g.rng.Intn(3) > 0 {
			m.SrcPort = g.port()
		}
		if g.rng.Intn(3) > 0 {
			m.DstPort = g.port()
		}
		for j := 0; j < 8; j++ {
			k := g.key(m.SrcPrefix, m.DstPrefix, anyProto)
			if j == 0 {
				k.SrcPort, k.DstPort = m.SrcPort, m.DstPort
			}
			want := refCovers(m, k)
			if got := m.Covers(k); got != want {
				t.Fatalf("Match %+v Covers(%v) = %v, netip reference %v", m, k, got, want)
			}
			if want {
				covered++
			}
		}
	}

	var acl []nf.ACLRule
	for i := 0; i < 4000; i++ {
		r := nf.ACLRule{
			Src: g.prefix(), Dst: g.prefix(),
			SrcPortLo: g.port(), SrcPortHi: g.port(),
			DstPortLo: g.port(), DstPortHi: g.port(),
			Proto:  g.ruleProto(),
			Action: nf.ACLAction(g.rng.Intn(2)),
		}
		if g.rng.Intn(2) == 0 {
			r.SrcPortLo, r.SrcPortHi = 0, 0xffff
		}
		if g.rng.Intn(2) == 0 {
			r.DstPortLo, r.DstPortHi = 0, 0xffff
		}
		for j := 0; j < 8; j++ {
			k := g.key(r.Src, r.Dst, []uint8{packet.ProtoTCP, packet.ProtoUDP})
			want := refACL(r, k)
			if got := aclRuleMatches(r, k); got != want {
				t.Fatalf("ACLRule %+v on %v: matched = %v, netip reference %v", r, k, got, want)
			}
			if want {
				aclHits++
			}
		}
		// Every eight rules, the firewall's first-match walk over the
		// compiled headers must pick the rule the reference picks.
		if acl = append(acl, r); len(acl) == 8 {
			fw := nf.NewFirewallFromRules(acl, nf.Deny)
			for j := 0; j < 8; j++ {
				src := acl[g.rng.Intn(len(acl))]
				k := g.key(src.Src, src.Dst, []uint8{packet.ProtoTCP, packet.ProtoUDP})
				want := nf.Deny
				for _, ar := range acl {
					if refACL(ar, k) {
						want = ar.Action
						break
					}
				}
				if got := fw.Process(buildKey(k, nil)); (got == nf.Drop) != (want == nf.Deny) {
					t.Fatalf("firewall %+v on %v: verdict %v, reference action %v", acl, k, got, want)
				}
			}
			acl = acl[:0]
		}
	}

	// The rule IDS is driven through Process, so the headers it
	// compiled at construction are what gets checked: a payload that
	// hits the rule's content is dropped exactly when the header
	// covers the packet's flow.
	content := []byte("ATTACK")
	for i := 0; i < 1000; i++ {
		r := nf.IDSRule{
			Action: "drop", Content: content, SID: i,
			Src: g.prefix(), Dst: g.prefix(),
			Proto: []uint8{0, packet.ProtoTCP, packet.ProtoUDP}[g.rng.Intn(3)],
		}
		if g.rng.Intn(3) > 0 {
			r.SrcPort = g.port()
		}
		if g.rng.Intn(3) > 0 {
			r.DstPort = g.port()
		}
		ids := nf.NewRuleIDS([]nf.IDSRule{r})
		for j := 0; j < 8; j++ {
			k := g.key(r.Src, r.Dst, []uint8{packet.ProtoTCP, packet.ProtoUDP})
			want := refIDSHeader(r, k)
			if got := ids.Process(buildKey(k, content)) == nf.Drop; got != want {
				t.Fatalf("IDS rule %+v on %v: dropped = %v, netip reference %v", r, k, got, want)
			}
			if want {
				idsHits++
			}
		}
	}

	// The generator must exercise both outcomes, or agreement is vacuous.
	if covered < 500 || aclHits < 300 || idsHits < 100 {
		t.Fatalf("too few positive cases: match %d, acl %d, ids %d", covered, aclHits, idsHits)
	}
	t.Logf("positive cases: match %d/32000, acl %d/32000, ids %d/8000", covered, aclHits, idsHits)
}

// TestNonIPv4PrefixesNeverMatch pins the rule for prefixes the
// IPv4-only dataplane cannot match: built in code, an IPv6 or
// IPv4-mapped prefix compiles to never-match, exactly as
// netip.Prefix.Contains behaves on an IPv4 address.
func TestNonIPv4PrefixesNeverMatch(t *testing.T) {
	k := packet.FlowKey{Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	for _, s := range []string{"::/0", "2001:db8::/32", "::ffff:10.0.0.0/104", "::ffff:0.0.0.0/96"} {
		p := netip.MustParsePrefix(s)
		if (dataplane.Match{SrcPrefix: p}).Covers(k) || (dataplane.Match{DstPrefix: p}).Covers(k) {
			t.Errorf("Match with prefix %s covers IPv4 flow %v", s, k)
		}
		any4 := netip.MustParsePrefix("0.0.0.0/0")
		if aclRuleMatches(nf.ACLRule{Src: p, Dst: any4, SrcPortHi: 0xffff, DstPortHi: 0xffff}, k) {
			t.Errorf("ACLRule with prefix %s matches IPv4 flow %v", s, k)
		}
	}
}
