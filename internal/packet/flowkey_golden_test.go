package packet

import (
	"net/netip"
	"testing"
)

// key builds a FlowKey from dotted-quad strings.
func key(s, d string, sp, dp uint16, proto uint8) FlowKey {
	return FlowKey{
		Src: netip.MustParseAddr(s).As4(), Dst: netip.MustParseAddr(d).As4(),
		SrcPort: sp, DstPort: dp, Proto: proto,
	}
}

// referenceHash is the historical closure-loop FNV-1a the unrolled
// FlowKey.Hash replaced. Shard and ECMP backend assignment are derived
// from these values, so the unrolled form must stay bit-identical to
// it forever.
func referenceHash(k FlowKey) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	for _, b := range k.Src {
		mix(b)
	}
	for _, b := range k.Dst {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	return h
}

// TestHashGoldenValues pins literal hash outputs. If these move, every
// persisted shard and backend assignment moves with them.
func TestHashGoldenValues(t *testing.T) {
	cases := []struct {
		k    FlowKey
		hash uint64
	}{
		{key("10.1.2.3", "10.4.5.6", 5000, 53, ProtoUDP), 0xd704fc9c7c402241},
		{key("192.168.0.1", "10.100.0.2", 1024, 80, ProtoTCP), 0x3d64d27b62d31de0},
	}
	for _, c := range cases {
		if got := c.k.Hash(); got != c.hash {
			t.Errorf("Hash(%v) = %#x, want %#x", c.k, got, c.hash)
		}
	}
	sym := key("192.168.0.1", "10.100.0.2", 1024, 80, ProtoTCP)
	if got := sym.SymmetricHash(); got != 0x89f3ea9e246ceda4 {
		t.Errorf("SymmetricHash = %#x, want 0x89f3ea9e246ceda4", got)
	}
}

// TestHashMatchesReference sweeps the unrolled hash against the
// closure-loop reference over a spread of keys.
func TestHashMatchesReference(t *testing.T) {
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			k := key("10.0.0.1", "10.100.0.1", uint16(1024+a*37), uint16(80+b), ProtoTCP)
			k.Src = [4]byte{10, byte(a), byte(b), 1}
			if got, want := k.Hash(), referenceHash(k); got != want {
				t.Fatalf("Hash(%v) = %#x, reference %#x", k, got, want)
			}
			if got, want := k.Reverse().Hash(), referenceHash(k.Reverse()); got != want {
				t.Fatalf("Reverse Hash(%v) = %#x, reference %#x", k, got, want)
			}
		}
	}
}

// BenchmarkFlowKeyHash measures the unrolled packed-key hash — the
// per-packet cost of the microflow cache probe and shard selection.
func BenchmarkFlowKeyHash(b *testing.B) {
	fk := FlowKey{
		Src: [4]byte{10, 0, 1, 2}, Dst: [4]byte{10, 100, 0, 1},
		SrcPort: 1033, DstPort: 80, Proto: ProtoTCP,
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += fk.Hash()
	}
	benchSink = sink
}

// BenchmarkFlowKeySymmetricHash measures the direction-independent
// variant used for shard assignment.
func BenchmarkFlowKeySymmetricHash(b *testing.B) {
	fk := FlowKey{
		Src: [4]byte{10, 0, 1, 2}, Dst: [4]byte{10, 100, 0, 1},
		SrcPort: 1033, DstPort: 80, Proto: ProtoTCP,
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += fk.SymmetricHash()
	}
	benchSink = sink
}

var benchSink uint64
