package packet

import (
	"fmt"
	"net/netip"
)

// FlowKey is the dataplane's one 5-tuple: packed 4-byte IPv4
// addresses, host-order ports and the effective L4 protocol (after AH,
// if present). It holds no netip.Addr, so comparing, hashing and
// storing it in maps costs plain word operations — the classifier's
// rule walk and microflow cache, shard selection, per-flow NF tables,
// telemetry and the flight recorder all key on it.
//
// It is computed at most once per packet and cached on the Packet
// beside the parsed layout (see Packet.FlowKey).
type FlowKey struct {
	Src, Dst         [4]byte
	SrcPort, DstPort uint16
	Proto            uint8
}

// FNV-1a constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns the 64-bit FNV-1a hash of the 5-tuple. The byte order
// (src, dst, sport, dport, proto — ports big-endian) and the fully
// unrolled mixing are bit-identical to the historical closure-loop
// FNV-1a, so ECMP backend choice and shard assignment never move;
// flowkey_golden_test.go pins the values.
func (k FlowKey) Hash() uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(k.Src[0])) * fnvPrime
	h = (h ^ uint64(k.Src[1])) * fnvPrime
	h = (h ^ uint64(k.Src[2])) * fnvPrime
	h = (h ^ uint64(k.Src[3])) * fnvPrime
	h = (h ^ uint64(k.Dst[0])) * fnvPrime
	h = (h ^ uint64(k.Dst[1])) * fnvPrime
	h = (h ^ uint64(k.Dst[2])) * fnvPrime
	h = (h ^ uint64(k.Dst[3])) * fnvPrime
	h = (h ^ uint64(k.SrcPort>>8)) * fnvPrime
	h = (h ^ uint64(k.SrcPort&0xff)) * fnvPrime
	h = (h ^ uint64(k.DstPort>>8)) * fnvPrime
	h = (h ^ uint64(k.DstPort&0xff)) * fnvPrime
	h = (h ^ uint64(k.Proto)) * fnvPrime
	return h
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		Src: k.Dst, Dst: k.Src,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

// SymmetricHash returns a direction-independent hash — A->B and B->A
// map to the same value — by combining the ordered pair of the two
// directional hashes.
func (k FlowKey) SymmetricHash() uint64 {
	a, b := k.Hash(), k.Reverse().Hash()
	if a > b {
		a, b = b, a
	}
	return a*fnvPrime ^ b
}

// String renders the key as src:sport->dst:dport/proto, for example
// "10.1.2.3:5000->10.4.5.6:53/17".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d",
		netip.AddrFrom4(k.Src), k.SrcPort, netip.AddrFrom4(k.Dst), k.DstPort, k.Proto)
}

// FlowKey returns the packet's packed 5-tuple. Parse computes and
// caches it alongside the layout, so the classifier derives it once per
// packet and the shard dispatcher plus every downstream NF reuse the
// cached copy.
//
// The cache obeys the same sharing discipline as the layout cache: on a
// parsed packet this is a pure read, so no-copy parallel groups sharing
// a buffer never write it concurrently (the inject and copy paths warm
// it up front). Tuple setters (SetSrcIP etc.) patch the cached key in
// place, so a NAT rewrite is visible to downstream readers without a
// recompute; structural edits go through Invalidate, which clears it
// with the layout, and the editor's own next accessor re-parses both
// back to warm before the packet is shared again.
func (p *Packet) FlowKey() (FlowKey, error) {
	if p.fkeyOK {
		return p.fkey, nil
	}
	if err := p.Parse(); err != nil {
		return FlowKey{}, err
	}
	return p.fkey, nil
}
