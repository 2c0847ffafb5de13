package packet

import (
	"encoding/binary"
	"net/netip"
)

// FlowMatch is a 5-tuple rule header compiled once, when the rule is
// installed, so a per-packet rule walk costs two masked compares of
// FlowKey words: one over the address pair, one over ports and
// protocol.
type FlowMatch struct{ addrMask, addr, l4Mask, l4 uint64 }

// NewFlowMatch compiles a rule header. An unset (invalid) prefix and a
// zero port or protocol are wildcards. An IPv6 or IPv4-mapped IPv6
// prefix matches no address, as netip.Prefix.Contains behaves on an
// IPv4 address.
func NewFlowMatch(src, dst netip.Prefix, srcPort, dstPort uint16, proto uint8) FlowMatch {
	sNet, sMask := prefixMask(src)
	dNet, dMask := prefixMask(dst)
	m := FlowMatch{addrMask: uint64(sMask)<<32 | uint64(dMask), addr: uint64(sNet)<<32 | uint64(dNet)}
	if srcPort != 0 {
		m.l4Mask |= 0xffff << 24
		m.l4 |= uint64(srcPort) << 24
	}
	if dstPort != 0 {
		m.l4Mask |= 0xffff << 8
		m.l4 |= uint64(dstPort) << 8
	}
	if proto != 0 {
		m.l4Mask |= 0xff
		m.l4 |= uint64(proto)
	}
	return m
}

// prefixMask packs p: address a lies in it when a&mask == net. A
// non-IPv4 prefix keeps a net bit its all-zero mask clears, so nothing
// matches it.
func prefixMask(p netip.Prefix) (net, mask uint32) {
	if !p.IsValid() {
		return 0, 0
	}
	if !p.Addr().Is4() {
		return 1, 0
	}
	mask = ^uint32(0) << (32 - p.Bits())
	a := p.Addr().As4()
	return binary.BigEndian.Uint32(a[:]) & mask, mask
}

// Matches reports whether the header covers k.
func (m FlowMatch) Matches(k FlowKey) bool { return m.covers(k.words()) }

// FirstMatch returns the index of the first header in ms that covers k,
// or -1: the first-match rule walk, with k packed once.
func FirstMatch(ms []FlowMatch, k FlowKey) int {
	addr, l4 := k.words()
	for i := range ms {
		if ms[i].covers(addr, l4) {
			return i
		}
	}
	return -1
}

func (m FlowMatch) covers(addr, l4 uint64) bool {
	return addr&m.addrMask == m.addr && l4&m.l4Mask == m.l4
}

// words packs k the way FlowMatch compares it.
func (k FlowKey) words() (addr, l4 uint64) {
	addr = uint64(binary.BigEndian.Uint32(k.Src[:]))<<32 | uint64(binary.BigEndian.Uint32(k.Dst[:]))
	return addr, uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
}
