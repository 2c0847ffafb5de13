package dataplane

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// TestInstallHistoryAcrossReload pins the install half of the config
// generation record over AddGraph(1), Reload(1), AddGraph(2): an
// install joins the live generation (no bump, no swap timestamp), only
// the reload advances it, and a graph installed after the reload is
// labelled with the generation it joined.
func TestInstallHistoryAcrossReload(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			s := New(Config{PoolSize: 256, Burst: 8, Shards: shards})
			if err := s.AddGraph(1, reloadGraph()); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			col := collectOutputs(s)
			if err := s.Reload(1, reloadGraph()); err != nil {
				t.Fatal(err)
			}
			if err := s.AddGraph(2, nfn(nfa.NFMonitor, 0)); err != nil {
				t.Fatal(err)
			}
			// Only the first install became the classifier default.
			pkt := buildInto(t, s, spec(1, 1000, "default"))
			if mid, ok := s.Classifier().Classify(pkt); !ok || mid != 1 {
				t.Fatalf("default class = %d (ok=%v), want MID 1", mid, ok)
			}
			pkt.Free()
			s.Stop()
			col.wait()

			info := s.ConfigInfo()
			if info.Generation != 2 || info.Reloads != 1 {
				t.Fatalf("generation %d after %d reloads, want 2 after 1", info.Generation, info.Reloads)
			}
			want := []struct {
				gen     uint64
				mid     uint32
				swapped bool
			}{{1, 1, false}, {2, 1, true}, {2, 2, false}}
			if len(info.History) != len(want) {
				t.Fatalf("history = %+v, want %d entries", info.History, len(want))
			}
			for i, w := range want {
				h := info.History[i]
				if h.Generation != w.gen || h.MID != w.mid || (h.SwappedNS != 0) != w.swapped {
					t.Errorf("history[%d] = %+v, want generation %d MID %d swapped=%v", i, h, w.gen, w.mid, w.swapped)
				}
				if !w.swapped && (h.DrainNS != 0 || h.Drained != 0) {
					t.Errorf("install history[%d] = %+v carries drain figures", i, h)
				}
			}

			var kinds []string
			for _, e := range s.FlightRecorder().Events(0) {
				switch e.Kind {
				case "install", "reload_swap", "reload_drained", "stop":
					kinds = append(kinds, fmt.Sprintf("%s gen=%d count=%d", e.Kind, e.Gen, e.Count))
				}
			}
			wantKinds := []string{
				"install gen=1 count=1",
				"reload_swap gen=2 count=0",
				"reload_drained gen=1 count=0",
				"install gen=2 count=2",
				"stop gen=2 count=0",
			}
			if strings.Join(kinds, "; ") != strings.Join(wantKinds, "; ") {
				t.Errorf("lifecycle events = %q, want %q", kinds, wantKinds)
			}

			// gen labels per MID: MID 1 has its unlabelled generation-1
			// series and its gen="2" successor; MID 2 only gen="2".
			gens := map[string]map[string]bool{}
			for _, c := range s.Telemetry().Snapshot().Counters {
				if c.Name != "nfp_nf_packets_in_total" {
					continue
				}
				mid := c.Labels["mid"]
				if gens[mid] == nil {
					gens[mid] = map[string]bool{}
				}
				gens[mid][c.Labels["gen"]] = true
			}
			for mid, wantGens := range map[string][]string{"1": {"", "2"}, "2": {"2"}} {
				var got []string
				for g := range gens[mid] {
					got = append(got, g)
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(wantGens, ",") {
					t.Errorf("MID %s series gen labels = %q, want %q", mid, got, wantGens)
				}
			}
		})
	}
}

// TestStartRacesReloadAndInstall is the regression for Start racing the
// generation protocol. A Reload that read started == false and then
// published after Start had walked the plans left its generation
// unstarted, with its packets parked in rings; an install that read
// started == true while Start was still walking the plans started one
// runtime twice, two consumers on one ring. Whatever the interleaving,
// every packet injected afterwards must surface and no buffer may leak.
func TestStartRacesReloadAndInstall(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for _, tc := range []struct {
		name  string
		apply func(s *Server) error
	}{
		{"reload", func(s *Server) error { return s.Reload(1, reloadGraph()) }},
		{"install", func(s *Server) error { return s.AddGraph(2, reloadGraph()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for it := 0; it < iters; it++ {
				s := New(Config{PoolSize: 128, Burst: 8, Shards: []int{1, 2, 8}[it%3]})
				if err := s.AddGraph(1, reloadGraph()); err != nil {
					t.Fatal(err)
				}
				s.Classifier().AddRule(Match{DstPort: 443}, 2)
				errs := make(chan error, 2)
				var wg sync.WaitGroup
				wg.Add(2)
				// Stagger Start by 0-390µs (a spin: sleeps are too coarse)
				// so it lands at every point of the apply: before the
				// build, inside it, and after.
				at := time.Now().Add(time.Duration(it%40) * 10 * time.Microsecond)
				go func() {
					defer wg.Done()
					for time.Now().Before(at) {
					}
					errs <- s.Start()
				}()
				go func() { defer wg.Done(); errs <- tc.apply(s) }()
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				col := collectOutputs(s)
				const n = 32
				for i := 0; i < n; i++ {
					dport := uint16(80)
					if tc.name == "install" && i%2 == 1 {
						dport = 443
					}
					pkt := buildInto(t, s, packet.BuildSpec{
						SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%7)}),
						DstIP:   netip.MustParseAddr("10.100.0.1"),
						Proto:   packet.ProtoTCP,
						SrcPort: uint16(1000 + i), DstPort: dport,
						Payload: []byte("startrace"),
					})
					if !s.Inject(pkt) {
						pkt.Free()
						t.Fatalf("iteration %d: inject %d rejected", it, i)
					}
				}
				// Bounded wait: an unstarted generation never surfaces its
				// packets, and Stop would wait for them forever.
				for limit := time.Now().Add(5 * time.Second); ; {
					st := s.Stats()
					if st.Injected == n && st.Outputs+st.Drops == n {
						break
					}
					if time.Now().After(limit) {
						t.Fatalf("iteration %d (shards %d): %d of %d packets surfaced (injected %d)",
							it, s.Shards(), st.Outputs+st.Drops, n, st.Injected)
					}
					time.Sleep(100 * time.Microsecond)
				}
				s.Stop()
				if outs := col.wait(); outs+int(s.Stats().Drops) != n {
					t.Fatalf("iteration %d: collected %d outputs + %d drops, want %d", it, outs, s.Stats().Drops, n)
				}
				if inUse := s.Pool().InUse(); inUse != 0 {
					t.Fatalf("iteration %d: pool leak: %d buffers", it, inUse)
				}
			}
		})
	}
}
