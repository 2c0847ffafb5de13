package main

import (
	"sort"
	"strings"

	"nfp/internal/dataplane"
	"nfp/internal/telemetry"
)

// labelKey renders a label set canonically, for matching series of
// two metric families that share labels.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + labels[k] + ",")
	}
	return b.String()
}

// gaugeMax is the largest value of a gauge family.
func gaugeMax(s telemetry.Snapshot, name string) int64 {
	var m int64
	for _, g := range s.Gauges {
		if g.Name == name && g.Value > m {
			m = g.Value
		}
	}
	return m
}

// ringHighWaterRatio is the fullest NF receive ring's high-water mark
// as a share of its capacity.
func ringHighWaterRatio(s telemetry.Snapshot) float64 {
	caps := map[string]int64{}
	for _, g := range s.Gauges {
		if g.Name == "nfp_nf_ring_capacity" {
			caps[labelKey(g.Labels)] = g.Value
		}
	}
	var m float64
	for _, g := range s.Gauges {
		if g.Name != "nfp_nf_ring_high_water" {
			continue
		}
		if c := caps[labelKey(g.Labels)]; c > 0 {
			m = max(m, float64(g.Value)/float64(c))
		}
	}
	return m
}

// histFamily merges the current state of every histogram of a family
// whose labels pass keep (nil keeps all).
func histFamily(reg *telemetry.Registry, name string, keep func(map[string]string) bool) telemetry.HistSnapshot {
	sum := telemetry.NewHistogram()
	for _, s := range reg.HistogramFamily(name) {
		if keep == nil || keep(s.Labels) {
			sum.Merge(s.H)
		}
	}
	return sum.Snapshot()
}

// nfIs keeps the series of one NF type across its instances
// ("l3fwd", "l3fwd#1", ...).
func nfIs(name string) func(map[string]string) bool {
	return func(l map[string]string) bool {
		t, _, _ := strings.Cut(l["nf"], "#")
		return t == name
	}
}

// layerCounters are the dataplane counters read at both ends of the
// closed-loop measurement.
type layerCounters struct {
	parks, yields           uint64
	hits, misses, evictions uint64
	copies, copiedBytes     uint64
	service                 map[string]telemetry.HistSnapshot
}

func readCounters(reg *telemetry.Registry, st dataplane.Stats) layerCounters {
	s := reg.Snapshot()
	lc := layerCounters{
		parks:       s.SumCounters("nfp_backpressure_parks_total"),
		yields:      s.SumCounters("nfp_backpressure_yields_total"),
		hits:        s.SumCounters("nfp_classifier_cache_hits_total"),
		misses:      s.SumCounters("nfp_classifier_cache_misses_total"),
		evictions:   s.SumCounters("nfp_classifier_cache_evictions_total"),
		copies:      st.Copies,
		copiedBytes: st.CopiedBytes,
		service:     map[string]telemetry.HistSnapshot{},
	}
	for _, nf := range nfNames {
		lc.service[nf] = histFamily(reg, "nfp_nf_service_time_ns", nfIs(nf))
	}
	return lc
}
