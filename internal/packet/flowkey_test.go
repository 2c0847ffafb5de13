package packet

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func buildTCP(t *testing.T) *Packet {
	t.Helper()
	return Build(BuildSpec{
		SrcIP:   netip.MustParseAddr("10.1.2.3"),
		DstIP:   netip.MustParseAddr("10.4.5.6"),
		Proto:   ProtoTCP,
		SrcPort: 1033, DstPort: 80,
		TTL: 64, Size: 96,
	})
}

func TestFlowKeyExtraction(t *testing.T) {
	p := buildTCP(t)
	fk, err := p.FlowKey()
	if err != nil {
		t.Fatal(err)
	}
	want := FlowKey{
		Src: [4]byte{10, 1, 2, 3}, Dst: [4]byte{10, 4, 5, 6},
		SrcPort: 1033, DstPort: 80, Proto: ProtoTCP,
	}
	if fk != want {
		t.Fatalf("FlowKey = %+v, want %+v", fk, want)
	}
	// Second call serves the cached copy.
	again, err := p.FlowKey()
	if err != nil || again != want {
		t.Fatalf("cached FlowKey = %+v (%v), want %+v", again, err, want)
	}
}

// TestFlowKeySetterPatching: the tuple setters must keep the cached key
// coherent with the buffer bytes, in place, without a re-parse.
func TestFlowKeySetterPatching(t *testing.T) {
	p := buildTCP(t)
	if _, err := p.FlowKey(); err != nil {
		t.Fatal(err)
	}
	p.SetSrcIP(netip.MustParseAddr("10.9.9.9"))
	p.SetDstIP(netip.MustParseAddr("10.8.8.8"))
	p.SetSrcPort(2000)
	p.SetDstPort(443)
	fk, err := p.FlowKey()
	if err != nil {
		t.Fatal(err)
	}
	want := FlowKey{
		Src: [4]byte{10, 9, 9, 9}, Dst: [4]byte{10, 8, 8, 8},
		SrcPort: 2000, DstPort: 443, Proto: ProtoTCP,
	}
	if fk != want {
		t.Fatalf("patched FlowKey = %+v, want %+v", fk, want)
	}
	// The cached key must agree with a from-scratch extraction.
	p.Invalidate()
	fresh, err := p.FlowKey()
	if err != nil {
		t.Fatal(err)
	}
	if fresh != want {
		t.Fatalf("re-extracted FlowKey = %+v, want %+v (cache drifted from bytes)", fresh, want)
	}
}

// TestFlowKeySettersWithoutWarmCache: setters on a packet whose key was
// never computed must not fabricate a cache entry.
func TestFlowKeySettersWithoutWarmCache(t *testing.T) {
	p := buildTCP(t)
	p.SetSrcPort(7777) // no FlowKey() call before this
	fk, err := p.FlowKey()
	if err != nil {
		t.Fatal(err)
	}
	if fk.SrcPort != 7777 {
		t.Fatalf("FlowKey.SrcPort = %d, want 7777", fk.SrcPort)
	}
}

func TestFlowKeyInvalidateAndAttachClear(t *testing.T) {
	p := buildTCP(t)
	if _, err := p.FlowKey(); err != nil {
		t.Fatal(err)
	}
	if !p.fkeyOK {
		t.Fatal("fkeyOK not set after FlowKey()")
	}
	p.Invalidate()
	if p.fkeyOK {
		t.Fatal("Invalidate left the flow key cache valid")
	}
	if _, err := p.FlowKey(); err != nil {
		t.Fatal(err)
	}
	p.Attach(make([]byte, 256), 0, nil)
	if p.fkeyOK {
		t.Fatal("Attach left the flow key cache valid")
	}
}

func TestFlowKeyCloneCarriesCache(t *testing.T) {
	src := buildTCP(t)
	want, err := src.FlowKey()
	if err != nil {
		t.Fatal(err)
	}
	dst := New(make([]byte, 256))
	src.CloneInto(dst)
	if !dst.fkeyOK {
		t.Fatal("CloneInto dropped the warm flow key cache")
	}
	if dst.fkey != want {
		t.Fatalf("clone key = %+v, want %+v", dst.fkey, want)
	}
}

// TestCopiesPreWarmFlowKey: both copy flavors must leave the copy's
// flow key warm, because NFs sharing a copy in a no-copy parallel
// group may never write the cache concurrently.
func TestCopiesPreWarmFlowKey(t *testing.T) {
	src := buildTCP(t)
	full := New(make([]byte, 256))
	FullCopy(src, full, 2)
	if !full.fkeyOK {
		t.Fatal("FullCopy left the flow key cold")
	}
	hoc := New(make([]byte, 256))
	HeaderOnlyCopy(src, hoc, 3)
	if !hoc.fkeyOK {
		t.Fatal("HeaderOnlyCopy left the flow key cold")
	}
	want, _ := src.FlowKey()
	if hoc.fkey != want {
		t.Fatalf("header-only copy key = %+v, want %+v", hoc.fkey, want)
	}
}

func TestFlowKeyUnparseable(t *testing.T) {
	p := New([]byte{1, 2, 3})
	if _, err := p.FlowKey(); err == nil {
		t.Fatal("FlowKey on a truncated packet succeeded")
	}
	if p.fkeyOK {
		t.Fatal("failed FlowKey marked the cache valid")
	}
}

func TestFlowKeyReverse(t *testing.T) {
	fk := FlowKey{
		Src: [4]byte{10, 1, 2, 3}, Dst: [4]byte{10, 4, 5, 6},
		SrcPort: 1033, DstPort: 80, Proto: ProtoTCP,
	}
	r := fk.Reverse()
	if r.Src != fk.Dst || r.Dst != fk.Src || r.SrcPort != fk.DstPort || r.DstPort != fk.SrcPort || r.Proto != fk.Proto {
		t.Fatalf("Reverse = %+v", r)
	}
	if fk.SymmetricHash() != r.SymmetricHash() {
		t.Fatal("SymmetricHash is direction-dependent")
	}
	if fk.Hash() == r.Hash() {
		t.Fatal("Hash should be direction-dependent")
	}
}

// TestFlowKeyHashAllocFree pins the probe-path cost: computing and
// hashing a warm key allocates nothing.
func TestFlowKeyHashAllocFree(t *testing.T) {
	p := buildTCP(t)
	if _, err := p.FlowKey(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		fk, _ := p.FlowKey()
		if fk.Hash() == 0 {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm FlowKey+Hash allocates %.1f per run, want 0", allocs)
	}
}

func TestFlowKeyFromPacket(t *testing.T) {
	p := Build(BuildSpec{
		SrcIP:   netip.MustParseAddr("10.1.2.3"),
		DstIP:   netip.MustParseAddr("10.4.5.6"),
		Proto:   ProtoUDP,
		SrcPort: 5000, DstPort: 53, Size: 80,
	})
	k, err := p.FlowKey()
	if err != nil {
		t.Fatal(err)
	}
	want := key("10.1.2.3", "10.4.5.6", 5000, 53, ProtoUDP)
	if k != want {
		t.Errorf("got %v, want %v", k, want)
	}
}

func TestFlowKeyFromPacketError(t *testing.T) {
	if _, err := New(make([]byte, 4)).FlowKey(); err == nil {
		t.Error("no error for truncated packet")
	}
}

func TestFlowKeyReverseTuple(t *testing.T) {
	k := key("1.1.1.1", "2.2.2.2", 10, 20, 6)
	r := k.Reverse()
	if r != key("2.2.2.2", "1.1.1.1", 20, 10, 6) {
		t.Errorf("reverse = %v", r)
	}
	if r.Reverse() != k {
		t.Error("double reverse is not identity")
	}
}

func TestHashDistinguishesFlows(t *testing.T) {
	a := key("1.1.1.1", "2.2.2.2", 10, 20, 6)
	variants := []FlowKey{
		key("1.1.1.2", "2.2.2.2", 10, 20, 6),
		key("1.1.1.1", "2.2.2.3", 10, 20, 6),
		key("1.1.1.1", "2.2.2.2", 11, 20, 6),
		key("1.1.1.1", "2.2.2.2", 10, 21, 6),
		key("1.1.1.1", "2.2.2.2", 10, 20, 17),
	}
	for _, v := range variants {
		if v.Hash() == a.Hash() {
			t.Errorf("hash collision between %v and %v", a, v)
		}
	}
	if a.Hash() != a.Hash() {
		t.Error("hash not deterministic")
	}
}

func TestSymmetricHash(t *testing.T) {
	f := func(a1, a2, b1, b2 byte, sp, dp uint16) bool {
		k := FlowKey{
			Src: [4]byte{10, a1, a2, 1}, Dst: [4]byte{10, b1, b2, 2},
			SrcPort: sp, DstPort: dp, Proto: 6,
		}
		return k.SymmetricHash() == k.Reverse().SymmetricHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFlowKeyString pins the rendering that map-order tie-breaks
// (diagnose top flows, monitor snapshots, equivalence reports) sort by.
func TestFlowKeyString(t *testing.T) {
	for _, c := range []struct {
		k    FlowKey
		want string
	}{
		{key("1.2.3.4", "5.6.7.8", 1, 2, 6), "1.2.3.4:1->5.6.7.8:2/6"},
		{key("10.1.2.3", "10.4.5.6", 5000, 53, ProtoUDP), "10.1.2.3:5000->10.4.5.6:53/17"},
		{FlowKey{}, "0.0.0.0:0->0.0.0.0:0/0"},
	} {
		if got := c.k.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
