package flightrec

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nfp/internal/packet"
)

// Kind is the event-ring record type.
type Kind uint8

const (
	// KindNone marks an empty slot (never emitted).
	KindNone Kind = iota
	// KindDrop is a PID-sampled terminal packet drop with provenance.
	KindDrop
	// KindPanic is an NF panic (triggers an incident snapshot).
	KindPanic
	// KindRestart is a supervised NF restart succeeding.
	KindRestart
	// KindRestartFail is a supervised NF restart failing.
	KindRestartFail
	// KindShed is a backpressure shed discarding a burst.
	KindShed
	// KindBackpressure is a producer parking on a full ring under the
	// block policy (one event per engagement, not per spin).
	KindBackpressure
	// KindHealth is a diagnose health-state transition.
	KindHealth
	// KindReloadSwap is a config generation going live.
	KindReloadSwap
	// KindReloadDrained is a superseded generation finishing its drain.
	KindReloadDrained
	// KindReloadFailed is a reload attempt that never swapped
	// (compile/validation error; triggers an incident snapshot).
	KindReloadFailed
	// KindInstall is the initial graph installation.
	KindInstall
	// KindStop is the server stopping after conservation was reached.
	KindStop
)

var kindNames = [...]string{
	"none", "drop", "panic", "restart", "restart_fail", "shed",
	"backpressure", "health", "reload_swap", "reload_drained",
	"reload_failed", "install", "stop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one decoded event-ring record, ready for JSON.
type Event struct {
	TS     int64  `json:"ts_ns"`
	Kind   string `json:"kind"`
	Shard  int    `json:"shard"`
	Gen    uint64 `json:"gen,omitempty"`
	Cause  string `json:"cause,omitempty"`
	Stage  string `json:"stage,omitempty"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
	PID    uint64 `json:"pid,omitempty"`
	Flow   string `json:"flow,omitempty"`
	Cursor int64  `json:"cursor_ns,omitempty"`
	Count  uint64 `json:"count,omitempty"`
}

// DropRecord is the provenance of one sampled terminal drop.
type DropRecord struct {
	Shard  int
	Cause  Cause
	Stage  uint8 // telemetry.Stage value of where the packet died
	Gen    uint64
	Node   uint32 // interned NF name of the drop's origin node
	PID    uint64
	Cursor int64 // span cursor (ns) — how far along its path it was
	Flow   packet.FlowKey
	HasKey bool
}

// Note is a non-drop event (panic, restart, shed, backpressure,
// health, reload lifecycle).
type Note struct {
	Shard  int
	Kind   Kind
	Gen    uint64
	Node   uint32 // interned NF/site name (0 = none)
	Detail uint32 // interned free-form detail (0 = none)
	Count  uint64
}

// StageNamer turns the packed telemetry.Stage byte back into a name;
// injected by the recorder's owner so flightrec needs no dataplane
// import. Nil falls back to the numeric value.
type StageNamer func(uint8) string

// Config sizes a Recorder.
type Config struct {
	// Shards is the number of independent event rings (>= 1).
	Shards int
	// RingSize is the per-shard ring capacity (rounded up to a power
	// of two; default 1024).
	RingSize int
	// DropSampleRate records ~1/rate terminal drops as per-drop
	// events via a PID mask (rounded up to a power of two; default 1
	// = every drop). Counters are always exact regardless.
	DropSampleRate int
	// StageNames renders stage bytes in decoded events.
	StageNames StageNamer
}

// Recorder is the always-on flight recorder: per-shard lock-free
// event rings plus a string intern table so the hot path records only
// integers. All methods are safe on a nil receiver (no-ops), so an
// ablation build can run recorder-free without guarding call sites.
type Recorder struct {
	rings      []*ring
	pidMask    uint64
	stageNames StageNamer

	mu    sync.RWMutex
	names []string
	idx   map[string]uint32

	onIncident atomic.Pointer[func(reason string)]
}

// NewRecorder builds a recorder with cfg.Shards independent rings.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	rate := cfg.DropSampleRate
	if rate <= 1 {
		rate = 1
	}
	mask := uint64(1)
	for mask < uint64(rate) {
		mask <<= 1
	}
	r := &Recorder{
		rings:      make([]*ring, cfg.Shards),
		pidMask:    mask - 1,
		stageNames: cfg.StageNames,
		names:      []string{""},
		idx:        map[string]uint32{"": 0},
	}
	for i := range r.rings {
		r.rings[i] = newRing(cfg.RingSize)
	}
	return r
}

// Intern maps a string to a stable small ID for event payloads. Call
// at setup time (plan build), never per packet. Safe on nil (returns
// 0).
func (r *Recorder) Intern(s string) uint32 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	id, ok := r.idx[s]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.idx[s]; ok {
		return id
	}
	id = uint32(len(r.names))
	r.names = append(r.names, s)
	r.idx[s] = id
	return id
}

func (r *Recorder) name(id uint32) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(id) < len(r.names) {
		return r.names[id]
	}
	return fmt.Sprintf("name(%d)", id)
}

// SampleDrop reports whether a drop with this PID should get a ring
// event (PID-masked sampling; counters stay exact either way). Safe
// on nil (false).
func (r *Recorder) SampleDrop(pid uint64) bool {
	return r != nil && pid&r.pidMask == 0
}

func (r *Recorder) ring(shard int) *ring {
	if shard < 0 || shard >= len(r.rings) {
		shard = 0
	}
	return r.rings[shard]
}

// word1 packs kind/cause/stage/shard/gen into one event word.
func word1(k Kind, c Cause, stage uint8, shard int, gen uint64) uint64 {
	return uint64(k) | uint64(c)<<8 | uint64(stage)<<16 |
		uint64(uint8(shard))<<24 | (gen&0xffffffff)<<32
}

// Drop records one sampled terminal drop. Alloc-free.
func (r *Recorder) Drop(d DropRecord) {
	if r == nil {
		return
	}
	var e rawEvent
	e[0] = uint64(time.Now().UnixNano())
	e[1] = word1(KindDrop, d.Cause, d.Stage, d.Shard, d.Gen)
	e[2] = uint64(d.Node)
	e[3] = d.PID
	if d.HasKey {
		e[4] = uint64(be32(d.Flow.Src))<<32 | uint64(be32(d.Flow.Dst))
		e[5] = uint64(d.Flow.SrcPort)<<48 | uint64(d.Flow.DstPort)<<32 |
			uint64(d.Flow.Proto)<<24 | 1 // low bit: flow present
	}
	e[6] = uint64(d.Cursor)
	r.ring(d.Shard).record(e)
}

// Event records one non-drop event. KindPanic and KindReloadFailed
// additionally fire the incident hook. Alloc-free on the ring path.
func (r *Recorder) Event(n Note) {
	if r == nil {
		return
	}
	var e rawEvent
	e[0] = uint64(time.Now().UnixNano())
	e[1] = word1(n.Kind, CauseUnknown, 0, n.Shard, n.Gen)
	e[2] = uint64(n.Node) | uint64(n.Detail)<<32
	e[4] = n.Count
	r.ring(n.Shard).record(e)
	if n.Kind == KindPanic || n.Kind == KindReloadFailed {
		r.Incident(n.Kind.String() + ":" + r.name(n.Node) + r.name(n.Detail))
	}
}

// SetOnIncident installs the anomaly hook (e.g. a Snapshotter's
// Trigger). The hook must be fast and non-blocking: it runs on
// dataplane goroutines. Safe on nil.
func (r *Recorder) SetOnIncident(fn func(reason string)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.onIncident.Store(nil)
		return
	}
	r.onIncident.Store(&fn)
}

// Incident fires the anomaly hook directly — for triggers that have
// no ring kind of their own (health-state transitions are recorded
// separately by the diagnoser). Safe on nil.
func (r *Recorder) Incident(reason string) {
	if r == nil {
		return
	}
	if fn := r.onIncident.Load(); fn != nil {
		(*fn)(reason)
	}
}

// Events decodes the newest events across every shard ring, oldest
// first, up to max per shard (<= 0 = full retained window). Safe on
// nil (returns nil).
func (r *Recorder) Events(max int) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, rg := range r.rings {
		for _, e := range rg.snapshot(max) {
			out = append(out, r.decode(e))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

func (r *Recorder) decode(e rawEvent) Event {
	k := Kind(e[1] & 0xff)
	ev := Event{
		TS:    int64(e[0]),
		Kind:  k.String(),
		Shard: int(uint8(e[1] >> 24)),
		Gen:   e[1] >> 32,
	}
	if k == KindDrop {
		c := Cause(e[1] >> 8 & 0xff)
		ev.Cause = c.String()
		stage := uint8(e[1] >> 16)
		if r.stageNames != nil {
			ev.Stage = r.stageNames(stage)
		} else {
			ev.Stage = fmt.Sprintf("stage(%d)", stage)
		}
		ev.Node = r.name(uint32(e[2]))
		ev.PID = e[3]
		if e[5]&1 != 0 {
			src := netip.AddrFrom4(from32(uint32(e[4] >> 32)))
			dst := netip.AddrFrom4(from32(uint32(e[4])))
			ev.Flow = fmt.Sprintf("%s:%d>%s:%d/%d",
				src, uint16(e[5]>>48), dst, uint16(e[5]>>32), uint8(e[5]>>24))
		}
		ev.Cursor = int64(e[6])
		return ev
	}
	if n := uint32(e[2]); n != 0 {
		ev.Node = r.name(n)
	}
	if d := uint32(e[2] >> 32); d != 0 {
		ev.Detail = r.name(d)
	}
	ev.Count = e[4]
	return ev
}

func be32(b [4]byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func from32(v uint32) [4]byte {
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}
