package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/packet"
)

// burst is the injector's burst size, the dataplane default.
const burst = dataplane.DefaultBurst

// serverConfig is the configuration nfpd ships: one shard per core
// (capped), burst 32, fused segments, microflow cache and flight
// recorder on, lossless block backpressure, and the pool budget
// nfpd's live runner gives each shard.
func serverConfig(traceRate, traceCap int) dataplane.Config {
	shards := dataplane.DefaultShards()
	return dataplane.Config{
		PoolSize:        1024 * shards,
		Mergers:         2,
		Shards:          shards,
		Burst:           dataplane.DefaultBurst,
		Fusion:          dataplane.FusionOn,
		DropSampleRate:  1,
		TraceSampleRate: traceRate,
		TraceCapacity:   traceCap,
	}
}

// digestBuckets is the number of per-flow output digest buckets.
const digestBuckets = 1 << 14

// bucket is one slice of the per-flow output digest: the packets whose
// output 5-tuple hashes here, counted and summed as hash(final bytes).
// Sums commute, so the digest is independent of cross-flow order.
type bucket struct {
	count uint64
	sum   uint64
}

// digest is the PID-free per-flow output digest of one run.
type digest [digestBuckets]bucket

// hashSeed keys every output hash in this process; digests are only
// compared within one process.
var hashSeed = maphash.MakeSeed()

func (d *digest) add(p *packet.Packet) {
	var b uint64
	if fk, err := p.FlowKey(); err == nil {
		b = fk.Hash() % digestBuckets
	}
	d[b].count++
	d[b].sum += maphash.Bytes(hashSeed, p.Bytes())
}

// compare returns the packets in buckets where the two digests differ:
// each differing bucket counts the larger of its two packet counts.
func (d *digest) compare(ref *digest) (mismatched uint64, buckets int) {
	for i := range d {
		if d[i] != ref[i] {
			buckets++
			mismatched += max(d[i].count, ref[i].count)
		}
	}
	return mismatched, buckets
}

// drain is the output-drain goroutine: it digests every output packet,
// records due-to-output latency for packets due inside the measured
// span, and frees the buffer.
type drain struct {
	outputs atomic.Uint64
	first   chan struct{}
	done    chan struct{}
	dig     *digest

	// A packet whose Ingress (its burst's due time) lies in [lo, hi)
	// is sampled into lat while it has room. lo starts at MaxInt64 (no
	// span) and is published once, after hi and lat are set; lat is
	// read only after quiesce.
	lo  atomic.Int64
	hi  int64
	lat []sample
}

func startDrain(out <-chan *packet.Packet) *drain {
	d := &drain{
		first: make(chan struct{}),
		done:  make(chan struct{}),
		dig:   new(digest),
	}
	d.lo.Store(math.MaxInt64)
	go d.run(out)
	return d
}

func (d *drain) run(out <-chan *packet.Packet) {
	defer close(d.done)
	for p := range out {
		if p.Ingress >= d.lo.Load() && p.Ingress < d.hi && len(d.lat) < cap(d.lat) {
			d.lat = append(d.lat, sample{due: p.Ingress, ns: time.Now().UnixNano() - p.Ingress})
		}
		d.dig.add(p)
		p.Free()
		if d.outputs.Add(1) == 1 {
			close(d.first)
		}
	}
}

// openSpan starts sampling latency for packets due in [lo, hi), up to
// n samples. It is called once, before any packet due in the span is
// injected.
func (d *drain) openSpan(lo, hi int64, n int) {
	d.hi = hi
	d.lat = make([]sample, 0, n)
	d.lo.Store(lo)
}

// latencyBytes is the memory the latency samples retain.
func (d *drain) latencyBytes() uint64 {
	return uint64(cap(d.lat)) * uint64(unsafe.Sizeof(sample{}))
}

// instance is one live server with its drain and packet source.
type instance struct {
	w        *workload
	srv      *dataplane.Server
	src      source
	drain    *drain
	injected uint64
	batch    []*packet.Packet

	// Injector-side layer timings, reset when the closed loop's
	// measured window opens.
	allocNS, injectNS, buildNS int64
	allocPkts, stalls          uint64
}

// setupTiming is one set-up: the orchestrator compile, then the
// install (New, rule install, AddGraph and Start), then the total until
// the first packet is output.
type setupTiming struct {
	compile, install, total time.Duration
}

// setUp brings a server up for w and waits until the first burst of
// warm-up traffic has produced an output packet.
func setUp(w *workload, seed int64, cfg dataplane.Config) (*instance, setupTiming, error) {
	var st setupTiming
	t0 := time.Now()
	g, err := w.compile(false)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	in, err := launch(w, g, seed, cfg)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	in.injectBurst(0, burst)
	select {
	case <-in.drain.first:
	case <-time.After(10 * time.Second):
		return nil, st, fmt.Errorf("%s: no output within 10s of start", w.name)
	}
	st.compile, st.install, st.total = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
	return in, st, nil
}

// launch builds, installs and starts a server for graph g, with its
// drain and a fresh packet source.
func launch(w *workload, g graph.Node, seed int64, cfg dataplane.Config) (*instance, error) {
	srv := dataplane.New(cfg)
	w.installRules(srv.Classifier())
	if err := srv.AddGraph(1, g); err != nil {
		return nil, fmt.Errorf("%s: install: %w", w.name, err)
	}
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("%s: start: %w", w.name, err)
	}
	return &instance{
		w: w, srv: srv, src: w.newSource(seed),
		drain: startDrain(srv.Output()),
		batch: make([]*packet.Packet, burst),
	}, nil
}

// injectBurst allocates, builds and injects one burst of up to n
// packets stamped with ingress time ts (0 stamps the injection time),
// retrying while the pool is empty. It adds up the injector's layer
// timings: the time inside AllocBatch, packet build and InjectBatch.
func (in *instance) injectBurst(ts int64, n int) {
	pool := in.srv.Pool()
	t0 := time.Now()
	got := pool.AllocBatch(in.batch[:n])
	for got == 0 {
		in.stalls++
		runtime.Gosched()
		t0 = time.Now()
		got = pool.AllocBatch(in.batch[:n])
	}
	t1 := time.Now()
	for _, p := range in.batch[:got] {
		packet.BuildInto(p, in.src.Next())
	}
	t2 := time.Now()
	if ts == 0 {
		ts = t2.UnixNano()
	}
	for _, p := range in.batch[:got] {
		p.Ingress = ts
	}
	in.srv.InjectBatch(in.batch[:got])
	t3 := time.Now()
	in.injected += uint64(got)
	in.allocPkts += uint64(got)
	in.allocNS += int64(t1.Sub(t0))
	in.buildNS += int64(t2.Sub(t1))
	in.injectNS += int64(t3.Sub(t2))
}

// quiesce waits until every injected packet has left the server as an
// output or a drop, and the drain has consumed every output.
func (in *instance) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := in.srv.Stats()
		if st.Outputs+st.Drops+st.Unroutable >= in.injected && in.drain.outputs.Load() >= st.Outputs {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %d packets still in flight after %v",
				in.w.name, in.injected-st.Outputs-st.Drops-st.Unroutable, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains and stops the server and waits for the drain goroutine.
func (in *instance) stop() {
	in.srv.Stop()
	<-in.drain.done
}

// openResult is one open-loop phase.
type openResult struct {
	lag   []int64 // injection time minus due time per measured burst, ns
	cores float64 // process CPU-seconds per wall-second while measured
	steal float64 // share of the machine's CPU time stolen meanwhile
}

// openLoop offers rate packets/s in bursts of 32 for warm, then for
// measure. Bursts arrive as a Poisson process seeded by seed, as from
// independent sources; a fixed period would phase-lock with the
// dataplane's idle back-off and measure one phase per run. Each burst
// is stamped with its due time, so a late generator or a stalled
// dataplane shows up as latency. The generator sleeps until each due
// time rather than spinning, so its own CPU use stays out of the CPU
// figure.
func (in *instance) openLoop(rate int, seed int64, warm, measure time.Duration) openResult {
	interval := float64(time.Second) * burst / float64(rate)
	gaps := rand.New(rand.NewSource(seed))
	start := time.Now().Add(time.Millisecond)
	mStart := start.Add(warm)
	end := mStart.Add(measure)
	in.drain.openSpan(mStart.UnixNano(), end.UnixNano(), int(float64(rate)*measure.Seconds()*1.2)+1024)
	res := openResult{lag: make([]int64, 0, int(float64(measure)/interval*1.25)+64)}
	var m0 meter
	for due := start; due.Before(end); due = due.Add(max(time.Duration(gaps.ExpFloat64()*interval), 1)) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if !due.Before(mStart) && m0.wall.IsZero() {
			m0 = readMeter()
		}
		in.injectBurst(due.UnixNano(), burst)
		if !due.Before(mStart) {
			res.lag = append(res.lag, now.Sub(due).Nanoseconds())
		}
	}
	time.Sleep(time.Until(end))
	res.cores, res.steal = readMeter().since(m0)
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	mpps      float64   // median of the sub-window rates
	windows   []float64 // delivered Mpps per sub-window
	steal     float64   // share of the machine's CPU time stolen
	delivered uint64
	mallocs   uint64 // heap allocations during the measured window
}

// closedLoop injects bursts as fast as lossless backpressure admits for
// warm+measure and reports the delivered rate as the median over the
// measured part's sub-windows, so one slow stretch (a GC, a descheduled
// vCPU) moves it less than it moves the mean. onMeasure runs between
// warm-up and measurement.
func (in *instance) closedLoop(warm, measure, window time.Duration, onMeasure func()) closedResult {
	deadline := time.Now().Add(warm)
	for time.Now().Before(deadline) {
		in.injectBurst(0, burst)
	}
	onMeasure()
	in.allocNS, in.injectNS, in.buildNS, in.allocPkts, in.stalls = 0, 0, 0, 0, 0
	res := closedResult{windows: make([]float64, 0, int(measure/window)+1)}
	m0 := readMeter() // before the Mallocs reading: it allocates
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start := time.Now()
	end := start.Add(measure)
	wStart, wOut := start, in.drain.outputs.Load()
	out0 := wOut
	for {
		in.injectBurst(0, burst)
		now := time.Now()
		if now.Sub(wStart) >= window || !now.Before(end) {
			out := in.drain.outputs.Load()
			res.windows = append(res.windows, float64(out-wOut)/now.Sub(wStart).Seconds()/1e6)
			wStart, wOut = now, out
			if !now.Before(end) {
				break
			}
		}
	}
	res.delivered = in.drain.outputs.Load() - out0
	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - mallocs0
	_, res.steal = readMeter().since(m0)
	res.mpps = quantile(res.windows, 0.5)
	return res
}

// meter is a reading of the wall clock, the process's CPU time and the
// machine's steal time, taken at a phase boundary.
type meter struct {
	wall       time.Time
	cpu, steal float64 // s, clock ticks
}

func readMeter() meter {
	return meter{wall: time.Now(), cpu: cpuSeconds(), steal: stealTicks()}
}

// since returns the process's CPU-seconds per wall-second from m0 to m,
// and the share of the machine's CPU time the hypervisor stole
// meanwhile.
func (m meter) since(m0 meter) (cores, steal float64) {
	wall := m.wall.Sub(m0.wall).Seconds()
	return (m.cpu - m0.cpu) / wall, (m.steal - m0.steal) / (wall * clockTicks * float64(runtime.NumCPU()))
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealTicks is the machine's cumulative CPU steal time from
// /proc/stat (the eighth number of its first line), in clock ticks:
// time the hypervisor ran something else while this machine's CPUs
// had work. It reads 0 where unavailable.
func stealTicks() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
