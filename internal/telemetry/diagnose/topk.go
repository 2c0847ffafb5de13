package diagnose

import (
	"container/heap"
	"net/netip"
	"sort"
	"sync"

	"nfp/internal/packet"
)

// TopK is a Space-Saving top-k heavy-hitter sketch (Metwally et al.,
// "Efficient Computation of Frequent and Top-k Elements in Data
// Streams") over 5-tuple flows: at most k counters are kept, a hit
// increments its counter, and a miss evicts the current minimum —
// inheriting its count as the new entry's overestimation error. The
// classic guarantees follow: every flow with true count > N/k is
// retained, and each reported count overestimates the truth by at most
// its recorded MaxOver (≤ N/k).
//
// The sketch is fed from the classifier through the dataplane's
// FlowObserver hook, normally on a 1-in-sampleRate packet subsample
// with counts pre-scaled by the caller — so the sketch's own cost never
// rides every packet. All methods are safe for concurrent use; the
// mutex is only contended by sampled packets and readers.
type TopK struct {
	mu         sync.Mutex
	k          int
	entries    map[packet.FlowKey]*ssEntry
	heap       ssHeap // min-heap by Pkts: the eviction candidate is O(1) away
	totalPkts  uint64
	totalBytes uint64
}

// ssEntry is one monitored flow.
type ssEntry struct {
	key   packet.FlowKey
	pkts  uint64
	bytes uint64
	// overPkts/overBytes are the counts inherited from the evicted
	// minimum when this entry entered — the worst-case overestimation.
	overPkts  uint64
	overBytes uint64
	idx       int // heap index
}

// ssHeap is a min-heap of entries by packet count.
type ssHeap []*ssEntry

func (h ssHeap) Len() int           { return len(h) }
func (h ssHeap) Less(i, j int) bool { return h[i].pkts < h[j].pkts }
func (h ssHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *ssHeap) Push(x any)        { e := x.(*ssEntry); e.idx = len(*h); *h = append(*h, e) }
func (h *ssHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// NewTopK creates a sketch tracking up to k flows (k < 1 is raised
// to 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, entries: make(map[packet.FlowKey]*ssEntry, k)}
}

// K returns the sketch capacity.
func (t *TopK) K() int { return t.k }

// ObserveFlow implements the dataplane's FlowObserver hook: credit pkts
// packets and bytes bytes to flow key. Callers subsampling the stream
// pass pre-scaled counts (pkts = sample rate).
func (t *TopK) ObserveFlow(k packet.FlowKey, pkts, bytes uint64) {
	t.mu.Lock()
	t.totalPkts += pkts
	t.totalBytes += bytes
	if e, ok := t.entries[k]; ok {
		e.pkts += pkts
		e.bytes += bytes
		heap.Fix(&t.heap, e.idx)
		t.mu.Unlock()
		return
	}
	if len(t.heap) < t.k {
		e := &ssEntry{key: k, pkts: pkts, bytes: bytes}
		t.entries[k] = e
		heap.Push(&t.heap, e)
		t.mu.Unlock()
		return
	}
	// Space-Saving eviction: the new flow takes over the minimum
	// counter in place (no allocation on the steady-state miss path),
	// inheriting its count as error.
	min := t.heap[0]
	delete(t.entries, min.key)
	min.key = k
	min.overPkts, min.overBytes = min.pkts, min.bytes
	min.pkts += pkts
	min.bytes += bytes
	t.entries[k] = min
	heap.Fix(&t.heap, 0)
	t.mu.Unlock()
}

// FlowCount is one reported heavy hitter: estimated counts plus the
// per-entry overestimation bound (true count ∈ [Pkts-OverPkts, Pkts]).
type FlowCount struct {
	Src       string `json:"src"`
	Dst       string `json:"dst"`
	Proto     uint8  `json:"proto"`
	Pkts      uint64 `json:"pkts"`
	Bytes     uint64 `json:"bytes"`
	OverPkts  uint64 `json:"max_overcount_pkts"`
	OverBytes uint64 `json:"max_overcount_bytes"`
	// Guaranteed marks entries whose lower bound (Pkts-OverPkts) still
	// exceeds the sketch's global error bound N/k — certainly real heavy
	// hitters, not eviction artifacts.
	Guaranteed bool `json:"guaranteed"`

	// Key is the structured 5-tuple (not serialized; Src/Dst carry it).
	Key packet.FlowKey `json:"-"`
}

// TopFlowsReport is the /debug/topflows document.
type TopFlowsReport struct {
	K          int    `json:"k"`
	TotalPkts  uint64 `json:"total_pkts"`
	TotalBytes uint64 `json:"total_bytes"`
	// ErrorBound is the sketch-wide worst-case overcount N/k.
	ErrorBound uint64      `json:"error_bound_pkts"`
	Flows      []FlowCount `json:"flows"`
}

// Top returns the up-to-n largest tracked flows by estimated packet
// count, descending (ties broken by flow key for determinism), along
// with the totals the error bound derives from.
func (t *TopK) Top(n int) TopFlowsReport {
	t.mu.Lock()
	rep := TopFlowsReport{K: t.k, TotalPkts: t.totalPkts, TotalBytes: t.totalBytes}
	if t.k > 0 {
		rep.ErrorBound = t.totalPkts / uint64(t.k)
	}
	// Value-copy under the lock: the entries behind the heap pointers
	// keep mutating after release.
	all := make([]ssEntry, len(t.heap))
	for i, e := range t.heap {
		all[i] = *e
	}
	t.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].pkts != all[j].pkts {
			return all[i].pkts > all[j].pkts
		}
		return all[i].key.String() < all[j].key.String()
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	for _, e := range all {
		rep.Flows = append(rep.Flows, FlowCount{
			Src:        netip.AddrPortFrom(netip.AddrFrom4(e.key.Src), e.key.SrcPort).String(),
			Dst:        netip.AddrPortFrom(netip.AddrFrom4(e.key.Dst), e.key.DstPort).String(),
			Proto:      e.key.Proto,
			Pkts:       e.pkts,
			Bytes:      e.bytes,
			OverPkts:   e.overPkts,
			OverBytes:  e.overBytes,
			Guaranteed: e.pkts-e.overPkts > rep.ErrorBound,
			Key:        e.key,
		})
	}
	return rep
}

// Reset clears the sketch (counts, entries and totals).
func (t *TopK) Reset() {
	t.mu.Lock()
	t.entries = make(map[packet.FlowKey]*ssEntry, t.k)
	t.heap = t.heap[:0]
	t.totalPkts, t.totalBytes = 0, 0
	t.mu.Unlock()
}
