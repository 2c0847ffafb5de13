package dataplane

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfp/internal/graph"
	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// DefaultBurst is the default dataplane burst size — DPDK's canonical
// 32-packet burst, the amortization unit the paper's throughput numbers
// assume.
const DefaultBurst = 32

// DefaultShards is the sharding default for nfpd: one shard per CPU,
// capped — each shard already fans out into classifier + runtime +
// merger goroutines, so past the cap extra shards only oversubscribe
// the scheduler.
func DefaultShards() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// atomicPlans is the COW installed-graph map every shard publishes.
type atomicPlans = atomic.Pointer[map[uint32]*planRuntime]

// FlowObserver receives sampled per-flow accounting from the
// classifier — the hook the diagnosis layer's heavy-hitter sketch
// plugs into without the dataplane importing it. Implementations must
// be safe for concurrent use; observations arrive pre-scaled by the
// sample rate (pkts = rate, bytes = wire length × rate), so estimates
// approximate true per-flow totals.
type FlowObserver interface {
	ObserveFlow(k packet.FlowKey, pkts, bytes uint64)
}

// Config sizes an NFP server.
type Config struct {
	// PoolSize is the number of packet buffers in the shared pool
	// (default 4096). With Shards > 1 the pool is partitioned evenly
	// across the shards, so size it as a whole-server budget.
	PoolSize int
	// BufSize is the per-buffer byte size; it must leave headroom over
	// the MTU for AH encapsulation (default 2048).
	BufSize int
	// RingSize is the per-NF receive ring capacity (default 512).
	RingSize int
	// Mergers is the number of merger instances the merger agent
	// load-balances across (default 2 — §6.3.3: "two merger instances
	// are sufficient ... with the parallelism degree of up to 5").
	// Sharded servers run this many mergers per shard.
	Mergers int
	// MergerQueue is each merger's input queue length (default 1024).
	MergerQueue int
	// OutputQueue is the output channel capacity (default 1024).
	OutputQueue int
	// Burst is the dataplane burst size (default 32): how many packet
	// references NF runtimes and mergers drain per ring/queue visit, and
	// the granularity at which per-burst telemetry is amortized. Burst=1
	// is the bit-exact compatibility mode — it reproduces the scalar
	// per-packet dataplane behavior, metric for metric.
	Burst int
	// Shards replicates the whole dataplane (RSS-style flow sharding):
	// each shard gets its own classifier loop, plan runtimes and rings,
	// merger instances and mempool partition, and ingress is dispatched
	// by symmetric 5-tuple flow hash so every packet of a flow — and
	// all per-flow NF state — stays on one shard, lock-free. Default 1:
	// the classic single-instance layout with no ingress rings and
	// byte-identical behavior and telemetry. When sharded, per-NF and
	// per-merger series gain a shard=<i> label and Inject* transfers
	// packet ownership unconditionally (see Inject).
	Shards int
	// IngressRing is each shard's ingress ring capacity (default 1024;
	// sharded mode only). A full ingress ring applies lossless
	// backpressure to the injector, like a full NIC receive queue.
	IngressRing int
	// ShardedOutputs, with Shards > 1, skips the output fan-in: each
	// shard's finished packets surface on its own channel (Outputs()),
	// and Output() returns nil. Parallel consumers drain shards
	// without the single-channel hop.
	ShardedOutputs bool
	// Registry provides NF factories (default nf.NewRegistry()).
	Registry *nf.Registry
	// Telemetry receives every dataplane metric. Each server should get
	// its own registry (series names collide otherwise); nil creates a
	// private one, reachable via Server.Telemetry().
	Telemetry *telemetry.Registry
	// TraceSampleRate enables per-packet path tracing for roughly one
	// in TraceSampleRate packets, selected by PID hash (0 disables; 1
	// traces everything; rounded down to a power of two).
	TraceSampleRate int
	// TraceCapacity bounds the trace event ring (default 4096).
	TraceCapacity int
	// RingPolicy is the backpressure policy applied when an NF receive
	// ring is full (default BPBlock: bounded spin, then park — lossless).
	RingPolicy BackpressurePolicy
	// SpinLimit bounds the Gosched-yield phase of every retry loop
	// before it parks or sheds (default DefaultSpinLimit).
	SpinLimit int
	// NodePriority ranks NFs by name for the shed-lowest-priority
	// policy (higher = more important; unlisted NFs rank 0). Derive it
	// from a policy's Priority rules with policy.PriorityRanks.
	NodePriority map[string]int
	// RestartBackoff is the supervisor's initial delay before
	// restarting a crashed NF instance; it doubles per panic up to
	// RestartBackoffMax (defaults 1ms and 250ms).
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
	// FlowAccount, when set, receives sampled per-flow (5-tuple)
	// accounting from the classifier at FlowSampleRate. Nil disables
	// flow accounting entirely (zero hot-path cost).
	FlowAccount FlowObserver
	// FlowSampleRate samples roughly one in FlowSampleRate classified
	// packets into FlowAccount, selected by PID mask (rounded down to a
	// power of two; default 64; 1 observes every packet). Synthetic
	// sources that strictly round-robin a flow set aligned with the rate
	// see a biased subset — real and randomized traffic do not.
	FlowSampleRate int
	// E2ESampleRate enables end-to-end latency recording
	// (nfp_e2e_latency_ns{mid}, ingress stamp to output delivery) for
	// roughly one in E2ESampleRate packets, PID-mask selected (rounded
	// down to a power of two; 0 disables; 1 records everything). The
	// histograms feed the diagnosis layer's SLO evaluation.
	E2ESampleRate int
	// Fusion selects the execution engine: FusionOn (the default —
	// FusionAuto resolves to it) fuses strictly sequential graph
	// segments into single run-to-completion runtimes with no
	// intermediate ring; FusionOff keeps the fully pipelined
	// one-goroutine-per-NF layout. Both modes are observationally
	// equivalent (see internal/equivalence); fusion only removes ring
	// hops the graph structure proves redundant.
	Fusion FusionMode
	// FlightRecorder supplies an externally built flight recorder
	// (must have at least Shards rings). Nil creates a private one —
	// the recorder is always on unless DisableFlightRecorder opts out.
	FlightRecorder *flightrec.Recorder
	// EventRing sizes each shard's flight-recorder event ring
	// (rounded up to a power of two; default 1024).
	EventRing int
	// DropSampleRate records roughly one in DropSampleRate terminal
	// drops as a per-drop flight-recorder event (flow key, cause,
	// node, stage, cursor), PID-mask selected (default 1 = every
	// drop). The per-cause drop counters stay exact regardless.
	DropSampleRate int
	// DisableFlightRecorder turns the event ring off entirely —
	// ablation benchmarks measuring recorder overhead only. Drop
	// provenance counters (nfp_drops_total{cause}) remain exact even
	// with the recorder off.
	DisableFlightRecorder bool
	// DisableFlowCache turns off the classifier's exact-match
	// microflow cache (ablation: every packet takes the full rule
	// walk). The cache is on by default and self-invalidates on any
	// rule mutation or reload, so disabling it never changes
	// classification results — only their cost.
	DisableFlowCache bool
	// FlowCacheSize is the per-shard microflow cache slot count,
	// rounded up to a power of two (default 4096).
	FlowCacheSize int
}

func (c *Config) setDefaults() {
	if c.PoolSize == 0 {
		c.PoolSize = 4096
	}
	if c.BufSize == 0 {
		c.BufSize = 2048
	}
	if c.RingSize == 0 {
		c.RingSize = 512
	}
	if c.Mergers == 0 {
		c.Mergers = 2
	}
	if c.MergerQueue == 0 {
		c.MergerQueue = 1024
	}
	if c.OutputQueue == 0 {
		c.OutputQueue = 1024
	}
	if c.Burst == 0 {
		c.Burst = DefaultBurst
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.IngressRing == 0 {
		c.IngressRing = 1024
	}
	if c.Registry == nil {
		c.Registry = nf.NewRegistry()
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	if c.SpinLimit == 0 {
		c.SpinLimit = DefaultSpinLimit
	}
	if c.SpinLimit < 0 {
		c.SpinLimit = 0
	}
	if c.RestartBackoff == 0 {
		c.RestartBackoff = time.Millisecond
	}
	if c.RestartBackoffMax == 0 {
		c.RestartBackoffMax = 250 * time.Millisecond
	}
	if c.RestartBackoffMax < c.RestartBackoff {
		c.RestartBackoffMax = c.RestartBackoff
	}
	if c.Fusion == FusionAuto {
		c.Fusion = FusionOn
	}
	if c.FlowSampleRate == 0 {
		c.FlowSampleRate = 64
	}
	if c.DropSampleRate < 1 {
		c.DropSampleRate = 1
	}
	if c.FlowCacheSize == 0 {
		c.FlowCacheSize = 4096
	}
}

// pidMask converts a 1-in-rate sampling rate to a PID mask (rate
// rounded down to a power of two): pid&mask == 0 selects the sample.
func pidMask(rate int) uint64 {
	if rate < 1 {
		rate = 1
	}
	p := uint64(1)
	for p*2 <= uint64(rate) {
		p *= 2
	}
	return p - 1
}

// planRuntime is one shard's installation of a service graph: the
// shared compiled Plan plus this shard's segment runtimes. A sharded
// server holds Config.Shards planRuntimes per MID, one per shard, all
// referencing the same immutable Plan. A Reload stands up a whole new
// planRuntime per shard (a new config generation) beside the old one,
// swaps the dispatch map, and drains the old runtime via the
// inflight/gone/retired protocol below.
type planRuntime struct {
	plan *Plan
	// rts holds one runtime per fused segment (per NF when fusion is
	// off); owner maps a plan node ID to the runtime executing it, so
	// dispatch targets resolve to the ring-owning segment.
	rts   []*nodeRT
	owner []*nodeRT
	// e2eLat records sampled ingress→output latency for this graph
	// (nil unless Config.E2ESampleRate enabled it).
	e2eLat *telemetry.Histogram
	// dropCtrs lazily caches the terminal per-cause drop counters,
	// indexed node*NumCauses+cause (see shard.dropCounter).
	dropCtrs []dropCtrSlot
	// nodeNames holds each plan node's NF name interned in the flight
	// recorder, so per-drop events carry an integer, not a string.
	nodeNames []uint32

	// gen is the config generation that installed this runtime (an
	// install joins the live generation; each Reload bumps it).
	// spanGen is the TraceEvent.Gen tag: gen for reloaded generations,
	// 0 for generation 1 so pre-reload trace output stays
	// byte-identical (the field is omitempty).
	gen     uint64
	spanGen int

	// inflight counts packets injected into this runtime that have not
	// yet reached their terminal output/drop event. Injectors reserve a
	// slot via shard.acquire BEFORE enqueueing, and deliver's ToOutput
	// arm releases it, so inflight == 0 means no packet of this
	// generation exists anywhere: rings, NF bursts, mergers, or drop
	// routes.
	inflight atomic.Int64
	// terminal counts completed packets (outputs + drops) of this
	// runtime — the per-generation drain meter.
	terminal atomic.Uint64
	// gone seals the runtime after a reload swapped it out of the
	// dispatch map: acquire retries against the published successor, so
	// no new packet can enter, and inflight becomes monotonically
	// draining.
	gone atomic.Bool
	// retired tells the runtime goroutines to exit; it is set only
	// after inflight reached 0, so every ring is provably empty.
	retired atomic.Bool
	// wg tracks this runtime's segment goroutines for teardown.
	wg sync.WaitGroup
}

// Server is one NFP server (Figure 3): shared memory pool, classifier,
// and one or more shards, each holding NF runtimes, merger instances
// and (when sharded) its own classifier loop over a mempool partition.
type Server struct {
	cfg        Config
	pool       *mempool.Pool
	classifier Classifier
	// reloadMu serializes every install and reload (apply) against each
	// other, against Start, and against Stop: a Stop that lands
	// mid-reload waits for the reload to finish draining the outgoing
	// generation, then drains the incoming one — both generations
	// drain, never neither (the Stop-vs-inflight ordering hazard).
	reloadMu sync.Mutex
	shards   []*shard
	// out is the fan-in output channel (nil when Config.ShardedOutputs
	// exposes the per-shard channels instead).
	out chan *packet.Packet

	started atomic.Bool
	stopped atomic.Bool
	wg      sync.WaitGroup
	fanWG   sync.WaitGroup

	// Sharded ingress accounting for the Stop drain: dispatched counts
	// packets accepted into ingress rings, ingressCleared counts
	// packets a shard loop fully resolved (injected or freed). They
	// match exactly when the ingress rings are empty.
	dispatched     atomic.Uint64
	ingressCleared atomic.Uint64

	// End-to-end counters, registry-backed (Config.Telemetry).
	tel       *telemetry.Registry
	tracer    *telemetry.Tracer
	injected  *telemetry.Counter
	outCount  *telemetry.Counter
	drops     *telemetry.Counter
	copies    *telemetry.Counter
	copiedB   *telemetry.Counter // bytes duplicated (resource overhead meter)
	mergeErrs *telemetry.Counter
	// unroutable counts sharded-ingress packets freed because no rule
	// matched or the MID had no graph (the sharded analog of a false
	// Inject return, where ownership already transferred).
	unroutable *telemetry.Counter
	// Overload/fault counters: ring sheds (packets lost to the
	// drop-tail/shed policies) and the spin/park activity of every
	// backpressured retry loop.
	sheds    *telemetry.Counter
	bpYields *telemetry.Counter
	bpParks  *telemetry.Counter
	// e2eMask selects which PIDs record end-to-end latency (meaningful
	// only when e2eOn; see Config.E2ESampleRate).
	e2eOn   bool
	e2eMask uint64

	// rec is the always-on flight recorder (nil only under
	// Config.DisableFlightRecorder; every call site is nil-safe).
	// recIngressID/recPoolID are the interned site names backpressure
	// events outside any plan node charge against.
	rec          *flightrec.Recorder
	recIngressID uint32
	recPoolID    uint32

	// Config-generation state. generation is the live config
	// generation (1 after New; each successful Reload bumps it), also
	// published on the nfp_config_generation gauge. history records one
	// entry per install/reload event for /debug/config.
	generation atomic.Uint64
	genG       *telemetry.Gauge
	reloadsC   *telemetry.Counter
	cfgMu      sync.Mutex
	history    []GenerationInfo
	// retiredPanics/retiredRestarts preserve the crash counters of
	// drained generations after their runtimes are torn down, so Stats
	// stays cumulative across reloads.
	retiredPanics   atomic.Uint64
	retiredRestarts atomic.Uint64
}

// New creates a server from cfg.
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:  cfg,
		pool: mempool.New(cfg.PoolSize, cfg.BufSize),
	}
	s.tel = cfg.Telemetry
	s.tracer = telemetry.NewTracer(cfg.TraceSampleRate, cfg.TraceCapacity)
	if s.tracer != nil {
		s.tracer.SetEvictedCounter(s.tel.Counter("nfp_trace_evicted_total"))
	}
	s.injected = s.tel.Counter("nfp_injected_total")
	s.outCount = s.tel.Counter("nfp_outputs_total")
	s.drops = s.tel.Counter("nfp_drops_total")
	s.copies = s.tel.Counter("nfp_copies_total")
	s.copiedB = s.tel.Counter("nfp_copied_bytes_total")
	s.mergeErrs = s.tel.Counter("nfp_merge_errors_total")
	s.unroutable = s.tel.Counter("nfp_ingress_unroutable_total")
	s.sheds = s.tel.Counter("nfp_ring_sheds_total")
	s.bpYields = s.tel.Counter("nfp_backpressure_yields_total")
	s.bpParks = s.tel.Counter("nfp_backpressure_parks_total")
	s.generation.Store(1)
	s.genG = s.tel.Gauge("nfp_config_generation")
	s.genG.Set(1)
	s.reloadsC = s.tel.Counter("nfp_reloads_total")
	if !cfg.DisableFlightRecorder {
		s.rec = cfg.FlightRecorder
		if s.rec == nil {
			s.rec = flightrec.NewRecorder(flightrec.Config{
				Shards:         cfg.Shards,
				RingSize:       cfg.EventRing,
				DropSampleRate: cfg.DropSampleRate,
				StageNames:     func(b uint8) string { return telemetry.Stage(b).String() },
			})
		}
		s.recIngressID = s.rec.Intern("ingress")
		s.recPoolID = s.rec.Intern("mempool")
	}
	// Self-description for scrapes and incident bundles: one constant
	// gauge whose labels carry the build and topology facts.
	bi := s.BuildInfo()
	s.tel.Gauge("nfp_build_info",
		telemetry.L("version", bi["version"]),
		telemetry.L("go_version", bi["go_version"]),
		telemetry.L("shards", bi["shards"]),
		telemetry.L("burst", bi["burst"]),
		telemetry.L("fusion", bi["fusion"]),
	).Set(1)
	s.classifier.bindTelemetry(s.tel)
	if !cfg.DisableFlowCache {
		s.classifier.bindFlowCache(cfg.Shards, cfg.FlowCacheSize)
	}
	if cfg.FlowAccount != nil {
		s.classifier.bindFlowObserver(cfg.FlowAccount, pidMask(cfg.FlowSampleRate))
	}
	if cfg.E2ESampleRate > 0 {
		s.e2eOn = true
		s.e2eMask = pidMask(cfg.E2ESampleRate)
	}
	sharded := cfg.Shards > 1
	var parts []*mempool.Pool
	if sharded {
		parts = s.pool.Partition(cfg.Shards)
	}
	s.pool.MustRegister(s.tel)
	// Keep a slice of the pool for the copies parallel stages create;
	// see mempool.SetReserve for the deadlock this prevents. On a
	// partitioned pool the reserve distributes across the shards.
	reserve := cfg.PoolSize / 8
	if reserve < 8 {
		reserve = cfg.PoolSize / 2
	}
	s.pool.SetReserve(reserve)
	if !sharded || !cfg.ShardedOutputs {
		s.out = make(chan *packet.Packet, cfg.OutputQueue)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{id: i, srv: s}
		if sharded {
			sh.spanID = i + 1
			sh.pool = parts[i]
			sh.in = ring.NewMPSC(cfg.IngressRing)
			sh.out = make(chan *packet.Packet, cfg.OutputQueue)
			lbl := telemetry.L("shard", strconv.Itoa(i))
			sh.ingress = s.tel.Counter("nfp_shard_ingress_total", lbl)
			sh.inHW = s.tel.Gauge("nfp_shard_ingress_high_water", lbl)
			s.tel.Gauge("nfp_shard_ingress_capacity", lbl).Set(int64(sh.in.Cap()))
		} else {
			sh.pool = s.pool
			sh.out = s.out
		}
		// The cause=unroutable provenance series is registered eagerly
		// (even when it stays zero) so the conservation ledger always
		// reconciles it against nfp_ingress_unroutable_total.
		// labelShard can't be used here: the shard slice is still being
		// built, so sharded() would read false for shard 0.
		unroutableLabels := []telemetry.Label{telemetry.L("cause", flightrec.CauseUnroutable.String())}
		if sharded {
			unroutableLabels = append(unroutableLabels, telemetry.L("shard", strconv.Itoa(i)))
		}
		sh.unroutableC = s.tel.Counter(flightrec.MetricDrops, unroutableLabels...)
		sh.plans.Store(&map[uint32]*planRuntime{})
		for m := 0; m < cfg.Mergers; m++ {
			sh.mergers = append(sh.mergers, newMerger(m, cfg.MergerQueue, sh))
		}
		s.shards = append(s.shards, sh)
	}
	return s
}

// sharded reports whether the server replicates the plan across
// multiple shards.
func (s *Server) sharded() bool { return len(s.shards) > 1 }

// Shards returns the number of dataplane shards.
func (s *Server) Shards() int { return len(s.shards) }

// shardMix finalizes the flow hash before the shard modulus
// (Murmur3's avalanche step): FNV's low bits are weak on structured
// key sets — real traffic with clustered addresses and sequential
// ports can otherwise starve entire shards.
func shardMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// ShardOfKey returns the shard a flow executes on: the (mixed)
// symmetric 5-tuple hash modulo the shard count, so both directions of
// a flow — what stateful NFs key their tables by — land on the same
// shard.
func (s *Server) ShardOfKey(k packet.FlowKey) int {
	if !s.sharded() {
		return 0
	}
	return int(shardMix(k.SymmetricHash()) % uint64(len(s.shards)))
}

// ShardOf returns the shard a packet will be dispatched to.
// Unparseable packets fall to shard 0, where classification rejects
// them.
func (s *Server) ShardOf(pkt *packet.Packet) int {
	if !s.sharded() {
		return 0
	}
	fk, err := pkt.FlowKey()
	if err != nil {
		return 0
	}
	return s.ShardOfKey(fk)
}

// ShardPool returns shard i's mempool partition (the shared pool when
// unsharded) — per-shard traffic sources allocate here for full buffer
// locality.
func (s *Server) ShardPool(i int) *mempool.Pool { return s.shards[i].pool }

// AddGraph compiles and installs a service graph under mid, creating
// fresh NF instances from the registry — an independent instance set
// per shard, so per-flow NF state stays shard-local. The first
// installed graph becomes the classifier default.
func (s *Server) AddGraph(mid uint32, g graph.Node) error {
	return s.apply(mid, g, nil, false)
}

// AddGraphInstances installs a graph using the provided NF instances
// where present (tests and examples use this to inspect NF state);
// missing instances come from the registry. It requires a single-shard
// server: one instance cannot serve multiple shards without breaking
// state locality — sharded callers use AddGraphProvide.
func (s *Server) AddGraphInstances(mid uint32, g graph.Node, instances map[graph.NF]nf.NF) error {
	if instances != nil && s.sharded() {
		return fmt.Errorf("dataplane: AddGraphInstances with explicit instances requires Shards=1 (a shared instance would cross shards); use AddGraphProvide")
	}
	return s.apply(mid, g, func(_ int, n graph.NF) nf.NF { return instances[n] }, false)
}

// AddGraphProvide installs a graph with per-shard NF instances:
// provide(shard, node) returns the instance for one node on one shard
// (nil falls back to the registry). Each shard's instances are only
// invoked from that shard's runtime goroutines.
//
// Installation is allowed while the server runs — the §7 elasticity
// path ("we could simply create a new instance ... and modify the
// forwarding table to redirect some flows to the new instance"): the
// new graph's NF runtimes start before they are published, and
// classifier rules can then redirect flows to the new MID with zero
// packet loss.
func (s *Server) AddGraphProvide(mid uint32, g graph.Node, provide func(shard int, node graph.NF) nf.NF) error {
	return s.apply(mid, g, provide, false)
}

// Reload hot-swaps the service graph installed under mid for a freshly
// compiled one with zero packet loss (see apply for the protocol). It
// may be called while traffic flows (that is the point) and from any
// goroutine. The NF instances of the new generation come fresh from
// the registry — reloading is a policy swap, not a state migration.
func (s *Server) Reload(mid uint32, g graph.Node) error {
	return s.apply(mid, g, nil, true)
}

// ReloadProvide is Reload with per-shard NF instance injection, the
// reload analog of AddGraphProvide (tests and state-migration layers
// use it to hand the new generation pre-built instances).
func (s *Server) ReloadProvide(mid uint32, g graph.Node, provide func(shard int, node graph.NF) nf.NF) error {
	return s.apply(mid, g, provide, true)
}

// apply runs the config-generation protocol for mid. An install
// (replace false) is the protocol run from an empty predecessor: it
// joins the live generation, and has nothing to seal, drain or retire.
// A replace (Reload) advances the generation:
//
//  1. compile g to a new Plan and build per-shard runtimes (rings,
//     fused segments, NF instances, generation-labelled telemetry)
//     entirely beside the live graph;
//  2. start them if the server is started, then COW-publish each
//     shard's dispatch map — packets classified after the publish
//     execute on the new runtimes, while in-flight packets keep their
//     generation's runtime pointer all the way through rings, mergers
//     and drop routes;
//  3. seal the predecessor (acquire retries against the successor) and
//     drain it: wait until its in-flight count reaches zero, so every
//     old-generation packet has surfaced as an output or a drop;
//  4. retire it: its goroutines exit, its crash counters roll up into
//     the server totals, and its drain is recorded on
//     nfp_reload_drained_total{gen=<old>} and in ConfigInfo.
//
// apply holds reloadMu throughout, so installs, reloads, Start and Stop
// serialize: Start never walks the plans while a runtime set is being
// started or published.
func (s *Server) apply(mid uint32, g graph.Node, provide func(shard int, node graph.NF) nf.NF, replace bool) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.stopped.Load() {
		return fmt.Errorf("dataplane: server stopped")
	}
	plan, err := CompilePlan(mid, g)
	if err != nil {
		return err
	}
	var old []*planRuntime
	for _, sh := range s.shards {
		if pr := (*sh.plans.Load())[mid]; pr != nil {
			old = append(old, pr)
		}
	}
	if replace && len(old) == 0 {
		return fmt.Errorf("dataplane: MID %d not installed (use AddGraph)", mid)
	}
	if !replace && len(old) > 0 {
		return fmt.Errorf("dataplane: MID %d already installed", mid)
	}
	gen := s.generation.Load()
	if replace {
		gen++
	}
	prs := make([]*planRuntime, len(s.shards))
	for i, sh := range s.shards {
		if prs[i], err = s.buildRuntime(sh, plan, provide, gen); err != nil {
			return err
		}
	}

	// Stand the new runtimes up before any packet can reach them.
	if s.started.Load() {
		for _, pr := range prs {
			s.startRuntimes(pr)
		}
	}

	// Snapshot the predecessor's completion meter before the publish so
	// the drain counter covers everything that finishes after it.
	var preTerm uint64
	for _, pr := range old {
		preTerm += pr.terminal.Load()
	}
	for i, sh := range s.shards {
		cur := *sh.plans.Load()
		next := make(map[uint32]*planRuntime, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		next[mid] = prs[i]
		sh.plans.Store(&next)
	}
	gi := GenerationInfo{Generation: gen, MID: mid, Hash: plan.CompileHash(), InstalledNS: time.Now().UnixNano()}
	if !replace {
		if len(*s.shards[0].plans.Load()) == 1 {
			s.classifier.SetDefault(mid)
		}
		s.recordGeneration(gi)
		s.note(flightrec.KindInstall, gen, 0, uint64(mid))
		return nil
	}
	s.generation.Store(gen)
	// A config-generation swap may retarget MIDs wholesale; expire every
	// microflow cache line so no packet rides a pre-swap classification.
	s.classifier.InvalidateCache()
	s.genG.Set(int64(gen))
	s.reloadsC.Inc()
	s.note(flightrec.KindReloadSwap, gen, 0, 0)
	gi.SwappedNS = gi.InstalledNS

	// Seal: acquire's increment-then-check handshake guarantees that
	// once gone is visible, no injector can add to the predecessor's
	// inflight without observing the seal and retrying against the
	// successor published above.
	for _, pr := range old {
		pr.gone.Store(true)
	}
	// Drain: wait for every old-generation packet to reach its terminal
	// output/drop event. Like Stop, this requires the output consumer
	// to keep draining.
	w := ring.Waiter{SpinLimit: s.cfg.SpinLimit}
	for {
		var inflight int64
		for _, pr := range old {
			inflight += pr.inflight.Load()
		}
		if inflight == 0 {
			break
		}
		w.Wait()
	}
	// Retire: runtimes exit (rings are provably empty), crash counters
	// roll up so Stats stays cumulative, and the event is recorded.
	for _, pr := range old {
		pr.retired.Store(true)
		gi.Drained += pr.terminal.Load()
		for _, n := range pr.rts {
			for i := range n.nfs {
				s.retiredPanics.Add(n.nfs[i].panics.Value())
				s.retiredRestarts.Add(n.nfs[i].restarts.Value())
			}
		}
	}
	for _, pr := range old {
		pr.wg.Wait() // a no-op for runtimes that never started
	}
	gi.Drained -= preTerm
	gi.DrainNS = time.Now().UnixNano() - gi.SwappedNS
	oldGen := old[0].gen
	s.tel.Counter("nfp_reload_drained_total",
		telemetry.L("gen", strconv.FormatUint(oldGen, 10))).Add(gi.Drained)
	s.note(flightrec.KindReloadDrained, oldGen, 0, gi.Drained)
	s.recordGeneration(gi)
	return nil
}

// labelGen appends the config-generation label for reloaded
// generations; generation 1 keeps every pre-reload series name and
// label set bit-identical (mirroring labelShard). The label is
// load-bearing, not just cosmetic: the registry's create-or-get
// semantics would otherwise silently merge a reloaded graph's series
// into the old generation's.
func labelGen(labels []telemetry.Label, gen uint64) []telemetry.Label {
	if gen > 1 {
		return append(labels, telemetry.L("gen", strconv.FormatUint(gen, 10)))
	}
	return labels
}

// buildRuntime instantiates one shard's runtimes for a compiled plan
// at config generation gen.
func (s *Server) buildRuntime(sh *shard, plan *Plan, provide func(int, graph.NF) nf.NF, gen uint64) (*planRuntime, error) {
	pr := &planRuntime{plan: plan, owner: make([]*nodeRT, len(plan.Nodes)), gen: gen}
	if gen > 1 {
		pr.spanGen = int(gen)
	}
	pr.dropCtrs = make([]dropCtrSlot, len(plan.Nodes)*flightrec.NumCauses)
	pr.nodeNames = make([]uint32, len(plan.Nodes))
	for i := range plan.Nodes {
		pr.nodeNames[i] = s.rec.Intern(plan.Nodes[i].NF.String())
	}
	shedSet := plan.ShedSet(s.cfg.NodePriority)
	// Segment layout: the shed-lowest-priority policy sheds into
	// specific rings, so its shed set is an isolation boundary the
	// fusion pass must not erase.
	var barrier []bool
	if s.cfg.RingPolicy == BPShedLowestPriority {
		barrier = shedSet
	}
	var segs [][]int
	if s.cfg.Fusion.enabled() {
		segs = plan.FusedSegments(barrier)
	} else {
		segs = singletonSegments(len(plan.Nodes))
	}
	midLabel := telemetry.L("mid", strconv.FormatUint(uint64(plan.MID), 10))
	if s.e2eOn {
		pr.e2eLat = s.tel.Histogram("nfp_e2e_latency_ns", labelGen(sh.labelShard([]telemetry.Label{midLabel}), gen)...)
	}
	for _, seg := range segs {
		head := &plan.Nodes[seg[0]]
		headLabels := labelGen(sh.labelShard([]telemetry.Label{telemetry.L("nf", head.NF.String()), midLabel}), gen)
		n := &nodeRT{
			nfs:           make([]segNF, len(seg)),
			rx:            ring.NewMPSC(s.cfg.RingSize),
			server:        s,
			sh:            sh,
			pr:            pr,
			canShed:       s.cfg.RingPolicy == BPDropTail || (s.cfg.RingPolicy == BPShedLowestPriority && shedSet[seg[0]]),
			shedImmediate: s.cfg.RingPolicy == BPDropTail,
			burst:         make([]*packet.Packet, s.cfg.Burst),
			verdicts:      make([]nf.Verdict, s.cfg.Burst),
			sheds:         s.tel.Counter("nfp_nf_ring_sheds_total", headLabels...),
			ringHW:        s.tel.Gauge("nfp_nf_ring_high_water", headLabels...),
		}
		// Static capacity beside the high-water mark, so the diagnosis
		// layer can express occupancy as a fill fraction.
		s.tel.Gauge("nfp_nf_ring_capacity", headLabels...).Set(int64(n.rx.Cap()))
		for k, id := range seg {
			pn := &plan.Nodes[id]
			var inst nf.NF
			if provide != nil {
				inst = provide(sh.id, pn.NF)
			}
			if inst == nil {
				var err error
				inst, err = s.cfg.Registry.New(pn.NF.Name)
				if err != nil {
					return nil, fmt.Errorf("dataplane: node %v: %w", pn.NF, err)
				}
			}
			labels := labelGen(sh.labelShard([]telemetry.Label{telemetry.L("nf", pn.NF.String()), midLabel}), gen)
			sn := &n.nfs[k]
			sn.plan = pn
			sn.pktsIn = s.tel.Counter("nfp_nf_packets_in_total", labels...)
			sn.pktsOut = s.tel.Counter("nfp_nf_packets_out_total", labels...)
			sn.drops = s.tel.Counter("nfp_nf_drops_total", labels...)
			sn.panics = s.tel.Counter("nfp_nf_panics_total", labels...)
			sn.panicDrops = s.tel.Counter("nfp_nf_panic_drops_total", labels...)
			sn.unhealthyDry = s.tel.Counter("nfp_nf_unhealthy_drops_total", labels...)
			sn.restarts = s.tel.Counter("nfp_nf_restarts_total", labels...)
			sn.restartFails = s.tel.Counter("nfp_nf_restart_failures_total", labels...)
			sn.healthyG = s.tel.Gauge("nfp_nf_healthy", labels...)
			sn.svcTime = s.tel.Histogram("nfp_nf_service_time_ns", labels...)
			sn.instP.Store(&instBox{nf: inst})
			sn.healthyG.Set(1)
			pr.owner[id] = n
		}
		n.healthy.Store(true)
		pr.rts = append(pr.rts, n)
	}
	return pr, nil
}

// startRuntimes launches the segment runtime goroutines of one plan.
func (s *Server) startRuntimes(pr *planRuntime) {
	for _, n := range pr.rts {
		s.wg.Add(1)
		pr.wg.Add(1)
		go func(n *nodeRT) {
			defer s.wg.Done()
			defer pr.wg.Done()
			n.run()
		}(n)
	}
}

// GenerationInfo records one config install/reload event for
// /debug/config.
type GenerationInfo struct {
	// Generation is the config generation this event produced.
	Generation uint64 `json:"generation"`
	// MID is the service graph the event installed or replaced.
	MID uint32 `json:"mid"`
	// Hash is the compiled plan's structural hash — two reloads to the
	// same policy produce the same hash.
	Hash string `json:"compile_hash"`
	// InstalledNS is when the runtimes were built (unix nanoseconds).
	InstalledNS int64 `json:"installed_ns"`
	// SwappedNS is when the dispatch tables swapped to this generation
	// (0 for an install, which joins the live generation).
	SwappedNS int64 `json:"swapped_ns,omitempty"`
	// DrainNS is how long draining the previous generation took after
	// the swap, and Drained how many of its in-flight packets completed
	// during that window.
	DrainNS int64  `json:"drain_ns,omitempty"`
	Drained uint64 `json:"drained,omitempty"`
}

// ConfigInfo is the /debug/config snapshot: live generation plus the
// conservation counters that prove a reload lost nothing.
type ConfigInfo struct {
	Generation uint64           `json:"generation"`
	Reloads    uint64           `json:"reloads"`
	Shards     int              `json:"shards"`
	Injected   uint64           `json:"injected"`
	Outputs    uint64           `json:"outputs"`
	Drops      uint64           `json:"drops"`
	PoolInUse  int              `json:"pool_in_use"`
	History    []GenerationInfo `json:"history"`
}

// recordGeneration appends one event to the bounded config history.
func (s *Server) recordGeneration(gi GenerationInfo) {
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.history = append(s.history, gi)
	if n := len(s.history); n > 32 {
		s.history = s.history[n-32:]
	}
}

// ConfigInfo returns the current config-generation snapshot.
func (s *Server) ConfigInfo() ConfigInfo {
	s.cfgMu.Lock()
	hist := append([]GenerationInfo(nil), s.history...)
	s.cfgMu.Unlock()
	return ConfigInfo{
		Generation: s.generation.Load(),
		Reloads:    s.reloadsC.Value(),
		Shards:     len(s.shards),
		Injected:   s.injected.Value(),
		Outputs:    s.outCount.Value(),
		Drops:      s.drops.Value(),
		PoolInUse:  s.pool.InUse(),
		History:    hist,
	}
}

// Generation returns the live config generation (1 until the first
// Reload).
func (s *Server) Generation() uint64 { return s.generation.Load() }

// Classifier exposes the classification table for rule installation.
// The table is shared by every shard's classifier loop (lookups are
// lock-free COW reads).
func (s *Server) Classifier() *Classifier { return &s.classifier }

// Pool returns the shared packet pool; traffic generators must build
// injected packets in pool buffers. On a sharded server the pool
// delegates to the per-shard partitions round-robin; sources that know
// their target shard use ShardPool for strict locality.
func (s *Server) Pool() *mempool.Pool { return s.pool }

// Output is the stream of packets that completed their service graph.
// The consumer owns each packet and must Free it. Nil when
// Config.ShardedOutputs routed outputs to per-shard channels.
func (s *Server) Output() <-chan *packet.Packet { return s.out }

// Outputs returns the per-shard output channels (a single channel on
// an unsharded server, or when the fan-in is active the fan-in
// channel). Consumers own the packets and must Free them.
func (s *Server) Outputs() []<-chan *packet.Packet {
	if !s.sharded() || !s.cfg.ShardedOutputs {
		return []<-chan *packet.Packet{s.out}
	}
	chans := make([]<-chan *packet.Packet, len(s.shards))
	for i, sh := range s.shards {
		chans[i] = sh.out
	}
	return chans
}

// Start launches every NF runtime, merger, and (when sharded) shard
// classifier loop. It serializes with apply, so every installed runtime
// is started exactly once: by Start if it was published before, by
// apply if after.
func (s *Server) Start() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if len(*s.shards[0].plans.Load()) == 0 {
		return fmt.Errorf("dataplane: no graphs installed")
	}
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("dataplane: already started")
	}
	for _, sh := range s.shards {
		for _, pr := range *sh.plans.Load() {
			s.startRuntimes(pr)
		}
		for _, m := range sh.mergers {
			s.wg.Add(1)
			go func(m *merger) {
				defer s.wg.Done()
				m.run()
			}(m)
		}
		if s.sharded() {
			s.wg.Add(1)
			go func(sh *shard) {
				defer s.wg.Done()
				sh.ingressLoop()
			}(sh)
			if s.out != nil {
				s.fanWG.Add(1)
				go func(ch chan *packet.Packet) {
					defer s.fanWG.Done()
					for p := range ch {
						s.out <- p
					}
				}(sh.out)
			}
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.supervise()
	}()
	return nil
}

// supervise is the NF supervisor goroutine: it periodically scans every
// installed node on every shard for crashed instances whose restart
// backoff elapsed and swaps in fresh instances from the registry, so a
// panicking NF degrades its own shard's micrograph instead of killing
// the server.
func (s *Server) supervise() {
	// Scan often enough that the smallest configured backoff is honored
	// promptly, but never busier than 4x the backoff rate.
	interval := s.cfg.RestartBackoff / 4
	if interval < 50*time.Microsecond {
		interval = 50 * time.Microsecond
	}
	if interval > time.Millisecond {
		interval = time.Millisecond
	}
	for !s.stopped.Load() {
		time.Sleep(interval)
		now := time.Now().UnixNano()
		for _, sh := range s.shards {
			for _, pr := range *sh.plans.Load() {
				for _, n := range pr.rts {
					n.maybeRestart(now)
				}
			}
		}
	}
}

// Stop drains in-flight packets and terminates all goroutines. It must
// be called exactly once, after the caller stops injecting.
//
// Stop serializes with Reload: called mid-reload it first waits for
// the reload to finish draining the outgoing generation, then drains
// the incoming one — the global conservation wait below covers every
// generation, because injected/outputs/drops are generation-blind
// totals and each packet terminates exactly once on the runtime it was
// injected into.
func (s *Server) Stop() {
	if !s.started.Load() || s.stopped.Load() {
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	w := ring.Waiter{SpinLimit: s.cfg.SpinLimit}
	// First drain the sharded ingress rings: a packet sitting there is
	// not yet counted as injected, so the conservation wait below could
	// otherwise pass early.
	for s.dispatched.Load() > s.ingressCleared.Load() {
		w.Wait()
	}
	// Wait until every injected packet surfaced as an output or a
	// drop. The output channel consumer must keep draining until Stop
	// returns, or this backpressures forever.
	w.Reset()
	for s.injected.Value() > s.outCount.Value()+s.drops.Value() {
		w.Wait()
	}
	s.note(flightrec.KindStop, s.generation.Load(), 0, 0)
	s.stopped.Store(true)
	for _, sh := range s.shards {
		for _, m := range sh.mergers {
			close(m.in)
		}
	}
	s.wg.Wait()
	if s.sharded() {
		for _, sh := range s.shards {
			close(sh.out)
		}
		if s.out != nil {
			// Fan-in goroutines drain the closed shard channels dry,
			// then the single output closes.
			s.fanWG.Wait()
			close(s.out)
		}
	} else {
		close(s.out)
	}
}

// Inject sends one packet (built in a pool buffer) into the dataplane.
//
// Unsharded, it classifies inline and reports false when
// classification fails — the caller keeps ownership of rejected
// packets. Sharded, it dispatches the packet to its flow's shard
// ingress ring (lossless backpressure when full) and always returns
// true: ownership transfers unconditionally, and packets the shard's
// classifier cannot route are freed there and counted on
// nfp_ingress_unroutable_total.
func (s *Server) Inject(pkt *packet.Packet) bool {
	if !s.sharded() {
		mid, ok := s.classifier.Classify(pkt)
		if !ok {
			return false
		}
		sh := s.shards[0]
		pr := sh.acquire(mid, 1)
		if pr == nil {
			return false
		}
		return sh.injectInto(pr, pkt)
	}
	s.dispatched.Add(1)
	var one [1]*packet.Packet
	one[0] = pkt
	s.shards[s.ShardOf(pkt)].ingressPush(one[:])
	return true
}

// InjectPreclassified sends a packet whose metadata (MID, PID,
// version) was assigned elsewhere — the cross-server ingress path,
// where the upstream server's classifier already tagged the packet and
// the NSH shim carried the tags over the wire (§7). It reports false
// when the MID has no installed graph. On a sharded server the packet
// executes on its flow's shard (resolved by hash, like fresh ingress),
// so cross-server flow affinity is preserved.
func (s *Server) InjectPreclassified(pkt *packet.Packet) bool {
	sh := s.shards[s.ShardOf(pkt)]
	pr := sh.acquire(pkt.Meta.MID, 1)
	if pr == nil {
		return false
	}
	if pkt.Meta.Version == 0 {
		pkt.Meta.Version = 1
	}
	return sh.injectInto(pr, pkt)
}

// InjectBatch injects a whole burst, the ingress analog of DPDK burst
// receive.
//
// Unsharded, it classifies inline with counters and ring deliveries
// amortized across the burst, returns the number of packets accepted,
// and stably partitions pkts: accepted packets occupy pkts[:n] (in
// their original relative order, already delivered), rejected packets
// — unclassified or classified to a MID with no installed graph — are
// compacted to pkts[n:] and remain owned by the caller.
//
// Sharded, it dispatches runs of same-shard packets into the shard
// ingress rings with one batched enqueue per run and returns
// len(pkts); ownership transfers unconditionally (see Inject).
func (s *Server) InjectBatch(pkts []*packet.Packet) int {
	if len(pkts) == 0 {
		return 0
	}
	if s.sharded() {
		s.dispatched.Add(uint64(len(pkts)))
		start, cur := 0, s.ShardOf(pkts[0])
		for i := 1; i <= len(pkts); i++ {
			sid := 0
			if i < len(pkts) {
				sid = s.ShardOf(pkts[i])
				if sid == cur {
					continue
				}
			}
			s.shards[cur].ingressPush(pkts[start:i])
			start, cur = i, sid
		}
		return len(pkts)
	}
	if len(pkts) == 1 {
		// Scalar fast path: identical to Inject.
		if s.Inject(pkts[0]) {
			return 1
		}
		return 0
	}
	sh := s.shards[0]
	classified := s.classifier.ClassifyBatch(pkts)
	plans := *sh.plans.Load()

	// Second stable partition: classified MIDs whose graph is not (yet)
	// installed are rejected too, exactly like scalar Inject. Same
	// in-place rotation as ClassifyBatch, so this path is alloc-free.
	n := 0
	for i := 0; i < classified; i++ {
		p := pkts[i]
		if plans[p.Meta.MID] == nil {
			continue
		}
		if n < i {
			copy(pkts[n+1:i+1], pkts[n:i])
		}
		pkts[n] = p
		n++
	}

	// Fan out runs of packets sharing a MID (and therefore a first hop)
	// as one burst each. acquire re-resolves the runtime per run: a
	// concurrent reload may have swapped the generation since the
	// snapshot above, and the snapshot's nil-check stays valid because
	// graphs are only ever replaced, never removed.
	for i := 0; i < n; {
		mid := pkts[i].Meta.MID
		j := i + 1
		for j < n && pkts[j].Meta.MID == mid {
			j++
		}
		sh.injectBurst(sh.acquire(mid, j-i), pkts[i:j])
		i = j
	}
	return n
}

// Stats is a snapshot of server counters.
type Stats struct {
	Injected uint64
	Outputs  uint64
	Drops    uint64
	// Unroutable counts sharded-ingress packets freed because no
	// classifier rule matched or the MID had no installed graph (0 on
	// unsharded servers, where rejects return to the caller instead).
	Unroutable uint64
	// Sheds counts packet REFERENCES lost to the ring backpressure
	// policy (drop-tail / shed-lowest-priority). Every shed rides the
	// drop route, so Injected == Outputs + Drops still holds; but in a
	// parallel stage each branch tail of one packet can shed
	// independently, so Sheds may exceed the terminal Drops it causes.
	// On join-free graphs Sheds <= Drops.
	Sheds uint64
	// Panics and Restarts count NF crashes caught at the runtime crash
	// boundary and supervisor-performed instance replacements, summed
	// over every shard.
	Panics   uint64
	Restarts uint64
	// Copies and CopiedBytes quantify the §6.3.1 resource overhead.
	Copies      uint64
	CopiedBytes uint64
	MergeErrors uint64
	// MergerLoad is the per-instance processed item count (§6.3.3),
	// shard-major on a sharded server (shard 0's mergers first).
	MergerLoad []uint64
	// ShardIngress is the per-shard classified-packet count (nil on an
	// unsharded server) — the RSS dispatch balance.
	ShardIngress []uint64
	// Pool reports buffer pool activity (whole-pool totals; partitions
	// roll up).
	Pool mempool.Stats
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Injected:    s.injected.Value(),
		Outputs:     s.outCount.Value(),
		Drops:       s.drops.Value(),
		Unroutable:  s.unroutable.Value(),
		Sheds:       s.sheds.Value(),
		Copies:      s.copies.Value(),
		CopiedBytes: s.copiedB.Value(),
		MergeErrors: s.mergeErrs.Value(),
		Pool:        s.pool.Stats(),
	}
	// Crash counters of drained generations were rolled up at retire
	// time; live runtimes add their own.
	st.Panics = s.retiredPanics.Load()
	st.Restarts = s.retiredRestarts.Load()
	for _, sh := range s.shards {
		for _, pr := range *sh.plans.Load() {
			for _, n := range pr.rts {
				for i := range n.nfs {
					st.Panics += n.nfs[i].panics.Value()
					st.Restarts += n.nfs[i].restarts.Value()
				}
			}
		}
		for _, m := range sh.mergers {
			st.MergerLoad = append(st.MergerLoad, m.processed.Value())
		}
		if s.sharded() {
			st.ShardIngress = append(st.ShardIngress, sh.ingress.Value())
		}
	}
	return st
}

// Telemetry returns the server's metrics registry (for serving
// /metrics or snapshotting after a run).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Tracer returns the per-packet path tracer, nil unless
// Config.TraceSampleRate enabled it.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// NodeRuntime returns the NF instance executing a graph node on shard
// 0, for state inspection in tests and examples.
func (s *Server) NodeRuntime(mid uint32, node graph.NF) (nf.NF, bool) {
	return s.NodeRuntimeShard(0, mid, node)
}

// NodeRuntimeShard returns the NF instance executing a graph node on
// one shard.
func (s *Server) NodeRuntimeShard(shard int, mid uint32, node graph.NF) (nf.NF, bool) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, false
	}
	pr := (*s.shards[shard].plans.Load())[mid]
	if pr == nil {
		return nil, false
	}
	for _, n := range pr.rts {
		for i := range n.nfs {
			if n.nfs[i].plan.NF == node {
				return n.nfs[i].inst(), true
			}
		}
	}
	return nil, false
}
