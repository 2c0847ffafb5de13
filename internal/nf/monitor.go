package nf

import (
	"sort"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// FlowStats are the per-flow counters a Monitor maintains.
type FlowStats struct {
	Packets uint64
	Bytes   uint64
}

// Monitor "maintains per-flow counters, which can be obtained by the
// operator. The counter table uses the hash value of the 5-tuple as
// the key" (§6.1). It is the canonical read-only NF of the paper's
// parallelism examples (Figure 1).
// The counter table is keyed on the packet-carried packet.FlowKey that
// classification already computed.
type Monitor struct {
	counters map[packet.FlowKey]*FlowStats
	total    FlowStats
}

// NewMonitor creates an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{counters: make(map[packet.FlowKey]*FlowStats)}
}

// Name implements NF.
func (m *Monitor) Name() string { return nfa.NFMonitor }

// Profile implements NF.
func (m *Monitor) Profile() nfa.Profile { return profileFor(nfa.NFMonitor) }

// Process counts the packet against its flow.
func (m *Monitor) Process(p *packet.Packet) Verdict {
	fk, err := p.FlowKey()
	if err != nil {
		return Pass
	}
	st := m.counters[fk]
	if st == nil {
		st = &FlowStats{}
		m.counters[fk] = st
	}
	st.Packets++
	st.Bytes += uint64(p.Len())
	m.total.Packets++
	m.total.Bytes += uint64(p.Len())
	return Pass
}

// Flow returns the counters of one flow.
func (m *Monitor) Flow(k packet.FlowKey) (FlowStats, bool) {
	st, ok := m.counters[k]
	if !ok {
		return FlowStats{}, false
	}
	return *st, true
}

// Total returns the aggregate counters.
func (m *Monitor) Total() FlowStats { return m.total }

// FlowCount returns the number of tracked flows.
func (m *Monitor) FlowCount() int { return len(m.counters) }

// TopFlows returns up to n flows by packet count, descending.
func (m *Monitor) TopFlows(n int) []packet.FlowKey {
	all := m.Snapshot()
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].Stats.Packets > all[j].Stats.Packets
	})
	if len(all) > n {
		all = all[:n]
	}
	keys := make([]packet.FlowKey, len(all))
	for i := range all {
		keys[i] = all[i].Key
	}
	return keys
}

// FlowRecord pairs a flow key with its counters, for export.
type FlowRecord struct {
	Key   packet.FlowKey
	Stats FlowStats
}

// Snapshot returns all tracked flows in deterministic (sorted) order,
// the input to the NetFlow exporter.
func (m *Monitor) Snapshot() []FlowRecord {
	out := make([]FlowRecord, 0, len(m.counters))
	for fk, st := range m.counters {
		out = append(out, FlowRecord{Key: fk, Stats: *st})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}
