package shardplane

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/heavyhitter"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/trace"
)

// Config sizes a Plane.
type Config struct {
	// Shards is the number of run-to-completion workers (default 1). Set it
	// to the core budget; each shard gets its own ring, lane and observers.
	Shards int
	// RingSlots is each shard's SPSC ring capacity (rounded up to a power
	// of two, default 1024 slots).
	RingSlots int
	// MaxPacket is the ring slot payload capacity (default 2048 bytes);
	// larger frames are rejected at submit and counted Oversize.
	MaxPacket int
	// Tracing, when non-nil, builds one flight recorder per shard from this
	// template and wires each into the region (Region.EnableTracing per
	// recorder, shard 0 last — so the region's own serial paths and
	// fallback nodes emit into shard 0's recorder). Every recorder interns
	// the same device table in the same order, which is what lets
	// DropCounts/Events merge them by summation. While a plane owns a
	// region's tracing, scrape trace state through the plane.
	Tracing *trace.Config
	// HeavyHitterK, when > 0, gives each shard its own SpaceSaving tracker
	// of that capacity; HeavyHitters() merges them on scrape.
	HeavyHitterK int
	// Sink, when set, is called on the shard's worker goroutine with every
	// packet's region-level outcome — the transmit half of run-to-
	// completion (the daemon writes UDP frames from it). It must not retain
	// res.GW.Out past the call and must not allocate if the plane's
	// 0 allocs/op property matters to the caller.
	Sink func(shard int, res cluster.Result, err error)
}

// Stats is a merged snapshot of the plane: the region-level taxonomy summed
// across shard lanes (identical shape to cluster.Region.Stats for the same
// traffic), plus the dispatch-side ring accounting.
type Stats struct {
	// Region is the merged per-lane accounting: forwards, fallbacks,
	// drops by front-end reason — the same totals a single-path run of the
	// same traffic would report from Region.Stats.
	Region cluster.RegionStats
	Shards int
	// Accepted counts frames the dispatcher enqueued; Processed counts
	// frames workers ran to completion. They differ only by in-flight ring
	// depth.
	Accepted  uint64
	Processed uint64
	// RingFull counts rejected Submit attempts against a full shard ring —
	// the backpressure signal (a retrying submitter increments it once per
	// failed attempt; a tail-dropping submitter once per lost frame).
	RingFull uint64
	// Oversize counts frames larger than the ring's slot capacity.
	Oversize uint64
	// Depth is the current total queue depth across shards.
	Depth int
}

// ShardStats is one shard's view of the same accounting.
type ShardStats struct {
	Region    cluster.RegionStats
	Accepted  uint64
	Processed uint64
	RingFull  uint64
	Oversize  uint64
	Depth     int
}

// planeShard is one worker's world: ring in, lane through, observers out.
type planeShard struct {
	id   int
	ring *Ring
	lane *cluster.Lane
	rec  *trace.Recorder
	hh   *heavyhitter.Tracker

	accepted  atomic.Uint64 // dispatcher-side
	ringFull  atomic.Uint64 // dispatcher-side
	oversize  atomic.Uint64 // dispatcher-side
	processed atomic.Uint64 // worker-side
}

// Plane runs a region across N run-to-completion shards. One goroutine (the
// dispatcher) calls Submit/SubmitBatch — it plays the NIC, hashing each
// frame's flow and pushing it onto the owning shard's SPSC ring; N worker
// goroutines drain their rings through per-shard cluster.Lanes. Scrape
// methods (Stats, DropCounts, Events, HeavyHitters, RegisterMetrics) are
// safe from any goroutine at any time.
//
// The control-plane quiescence contract is the one cluster.Lane documents:
// table and mode mutations may not run concurrently with traffic.
type Plane struct {
	region *cluster.Region
	cfg    Config
	shards []*planeShard

	// mu serializes Close against in-flight Submit/SubmitBatch pushes:
	// submitters hold the read side across the ring push, Close takes the
	// write side to flip closed, so no frame can land in a ring after Close
	// observed it — a racing submit is rejected (Submit returns false)
	// rather than stranding the frame in a ring no worker will drain.
	// closed stays atomic so the worker poll loop reads it without the lock.
	mu     sync.RWMutex
	closed atomic.Bool
	wg     sync.WaitGroup
}

// New builds the plane over the region and starts its shard workers. Create
// the plane after the region is populated and traced/tracked observers are
// decided; the per-shard recorders and trackers are wired here, before any
// worker starts.
func New(region *cluster.Region, cfg Config) *Plane {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	p := &Plane{region: region, cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		p.shards = append(p.shards, &planeShard{
			id:   i,
			ring: NewRing(cfg.RingSlots, cfg.MaxPacket),
			lane: region.NewLane(),
		})
	}
	if cfg.Tracing != nil {
		// Wire shard 0 last so the region's serial paths and the fallback
		// pool point at its recorder; every recorder interns the identical
		// device table, so per-shard events merge cleanly.
		for i := cfg.Shards - 1; i >= 0; i-- {
			rec := trace.New(*cfg.Tracing)
			region.EnableTracing(rec)
			p.shards[i].rec = rec
			p.shards[i].lane.EnableTracing(rec)
		}
	}
	if cfg.HeavyHitterK > 0 {
		for _, s := range p.shards {
			s.hh = heavyhitter.NewTracker(cfg.HeavyHitterK)
			s.lane.EnableHeavyHitters(s.hh)
		}
	}
	p.wg.Add(len(p.shards))
	for _, s := range p.shards {
		go p.worker(s)
	}
	return p
}

// Shards returns the shard count.
func (p *Plane) Shards() int { return len(p.shards) }

// ShardIndex maps a flow hash to its owning shard among n. The hash goes
// through the same 64-bit finalizer mix the SNAT store shards by (FNV-1a's
// low bits are weak for structured five-tuples), so real traffic spreads
// evenly and a flow's packets always land on one shard. Exported so other
// dispatchers (cmd/sailfish-gw's workers mode) shard exactly like the
// plane does.
func ShardIndex(hash uint64, n int) int {
	h := hash
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(n))
}

// shardFor maps a flow hash to its owning shard.
func (p *Plane) shardFor(hash uint64) *planeShard {
	return p.shards[ShardIndex(hash, len(p.shards))]
}

// Submit hashes one frame to its flow's shard and enqueues it — the RSS
// step. It returns false without enqueuing when the plane is closed, the
// frame exceeds the slot capacity (counted Oversize) or the shard ring is
// full (counted RingFull); the caller chooses between retrying and tail-
// dropping. Safe against a concurrent Close (the rejection is clean — no
// frame is ever stranded in a ring after Close returns); ring pushes
// themselves remain single-dispatcher-goroutine only. Allocation-free.
func (p *Plane) Submit(raw []byte, now time.Time) bool {
	if p.closed.Load() {
		return false
	}
	var s *planeShard
	var fm netpkt.FrontMeta
	if err := netpkt.ParseFront(raw, &fm); err != nil {
		// No flow identity to hash: shard 0 carries the frame so the lane
		// books the parse_error drop under the normal front taxonomy.
		s = p.shards[0]
	} else {
		s = p.shardFor(fm.Flow.FastHash())
	}
	if len(raw) > s.ring.maxPacket {
		s.oversize.Add(1)
		return false
	}
	// Hold the read side across the push so Close's write lock waits out
	// an in-flight enqueue before workers are told to drain and exit.
	p.mu.RLock()
	if p.closed.Load() {
		p.mu.RUnlock()
		return false
	}
	ok := s.ring.Push(raw, now.UnixNano())
	p.mu.RUnlock()
	if !ok {
		s.ringFull.Add(1)
		return false
	}
	s.accepted.Add(1)
	return true
}

// SubmitBatch submits each frame in order, returning how many were
// enqueued. Rejected frames are counted (RingFull/Oversize) and skipped —
// NIC tail-drop semantics; use Submit per frame to retry instead.
func (p *Plane) SubmitBatch(raws [][]byte, now time.Time) int {
	accepted := 0
	for _, raw := range raws {
		if p.Submit(raw, now) {
			accepted++
		}
	}
	return accepted
}

// worker is one shard's run-to-completion loop: drain the ring through the
// lane and hand each outcome to the sink. No push can start after closed
// (Close's write lock waits the in-flight ones out), which is the ordering
// Ring.Consume needs to strand nothing.
func (p *Plane) worker(s *planeShard) {
	defer p.wg.Done()
	sink := p.cfg.Sink
	s.ring.Consume(&p.closed, func(raw []byte, ns int64) {
		res, err := s.lane.Process(raw, time.Unix(0, ns))
		if sink != nil {
			sink(s.id, res, err)
		}
		s.processed.Add(1)
	})
}

// Close stops the intake and waits for every shard to drain and exit.
// Submissions racing Close are rejected (Submit returns false) rather than
// stranding frames, so Close is safe from any goroutine; idempotent, though
// only the first call waits for the drain.
func (p *Plane) Close() {
	p.mu.Lock()
	if !p.closed.CompareAndSwap(false, true) {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	// Every submitter that saw closed==false has finished its push (the
	// write lock above waited them out), and every later one rejects, so
	// the rings only drain from here.
	p.wg.Wait()
}

// Drain blocks until every accepted frame has been processed — the
// scrape-before-assert step for tests and benchmarks that keep the plane
// open. Single dispatcher goroutine only (in-flight Submits would move the
// goal).
func (p *Plane) Drain() {
	for _, s := range p.shards {
		// The worker bumps processed before releasing the slot, so an
		// empty ring means every accepted frame is accounted for.
		for s.ring.Len() > 0 {
			runtime.Gosched()
		}
	}
}

// Stats returns the merged snapshot: per-lane region taxonomy summed across
// shards plus dispatch-side ring accounting. Safe under live traffic.
func (p *Plane) Stats() Stats {
	st := Stats{Shards: len(p.shards)}
	for _, s := range p.shards {
		s.lane.AddStatsInto(&st.Region)
		st.Accepted += s.accepted.Load()
		st.Processed += s.processed.Load()
		st.RingFull += s.ringFull.Load()
		st.Oversize += s.oversize.Load()
		st.Depth += s.ring.Len()
	}
	return st
}

// ShardStats returns each shard's own view, in shard order.
func (p *Plane) ShardStats() []ShardStats {
	out := make([]ShardStats, len(p.shards))
	for i, s := range p.shards {
		out[i] = ShardStats{
			Region:    s.lane.Stats(),
			Accepted:  s.accepted.Load(),
			Processed: s.processed.Load(),
			RingFull:  s.ringFull.Load(),
			Oversize:  s.oversize.Load(),
			Depth:     s.ring.Len(),
		}
	}
	return out
}

// Recorders returns the per-shard flight recorders (nil-free; empty when
// tracing is off). Shard 0's recorder is also the region's.
func (p *Plane) Recorders() []*trace.Recorder {
	var out []*trace.Recorder
	for _, s := range p.shards {
		if s.rec != nil {
			out = append(out, s.rec)
		}
	}
	return out
}

// DropCounts merges the per-shard recorders' cumulative drop tallies — the
// sharded equivalent of Recorder.DropCounts, reconciling exactly against
// the merged stats taxonomy.
func (p *Plane) DropCounts() []trace.DropCount {
	return trace.MergeDropCounts(p.Recorders()...)
}

// Events merges the per-shard recorders' rings into one timestamp-ordered
// stream (f.Limit applies to the merged result).
func (p *Plane) Events(f trace.Filter) []trace.Event {
	return trace.MergeEvents(f, p.Recorders()...)
}

// HeavyHitters merges the per-shard trackers into one scrape-time view; nil
// when HeavyHitterK was 0. Flows shard wholly, so merged counts are exact
// for them; see heavyhitter.Merge for route-entry semantics.
func (p *Plane) HeavyHitters() *heavyhitter.Tracker {
	if p.cfg.HeavyHitterK <= 0 {
		return nil
	}
	var hhs []*heavyhitter.Tracker
	for _, s := range p.shards {
		hhs = append(hhs, s.hh)
	}
	return heavyhitter.Merge(p.cfg.HeavyHitterK, hhs...)
}

// RegisterMetrics publishes the merged region taxonomy under the same
// sailfish_region_* families Region.RegisterMetrics uses — in a sharded
// deployment register the plane instead of the region — plus per-shard
// sailfish_shardplane_* intake counters and ring-depth gauges. Values are
// merged at scrape time.
func (p *Plane) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("sailfish_region_forwarded_total", "packets forwarded by XGW-H nodes", nil,
		func() uint64 { return p.Stats().Region.Forwarded })
	reg.CounterFunc("sailfish_region_fallback_total", "packets steered to the XGW-x86 pool", nil,
		func() uint64 { return p.Stats().Region.Fallback })
	reg.CounterFunc("sailfish_region_dropped_total", "packets dropped region-wide", nil,
		func() uint64 { return p.Stats().Region.Dropped })
	reg.CounterFunc("sailfish_region_noroute_total", "packets with no steering rule", nil,
		func() uint64 { return p.Stats().Region.NoRoute })
	reg.CounterFunc("sailfish_region_degraded_total", "packets carried by the pool for degraded clusters", nil,
		func() uint64 { return p.Stats().Region.Degraded })
	reg.CounterFunc("sailfish_region_fallback_miss_total", "fallbacks caused by hardware table misses", nil,
		func() uint64 { return p.Stats().Region.FallbackMiss })
	reg.CounterFunc("sailfish_region_fallback_miss_total", "hardware table misses absorbed by the DPU tier",
		metrics.Labels{"tier": "dpu"},
		func() uint64 { return p.Stats().Region.DPUServed })
	reg.CounterFunc("sailfish_region_fallback_miss_total", "hardware table misses carried by the x86 pool",
		metrics.Labels{"tier": "x86"},
		func() uint64 { return p.Stats().Region.FallbackMissX86 })
	reg.GaugeFunc("sailfish_region_stack_coverage", "share of route-resolved packets served by XGW-H plus the DPU tier", nil,
		func() float64 {
			st := p.Stats().Region
			fwd := float64(st.Forwarded + st.DPUServed)
			denom := float64(st.Forwarded + st.FallbackMiss)
			if denom == 0 {
				return 0
			}
			return fwd / denom
		})
	for _, code := range cluster.FrontDropReasons {
		name := code.String()
		reg.CounterFunc("sailfish_region_front_drops_total", "front-end drops by reason",
			metrics.Labels{"reason": name},
			func() uint64 { return p.Stats().Region.FrontDrops[name] })
	}
	for _, s := range p.shards {
		sh := s
		lbl := metrics.Labels{"shard": fmt.Sprint(sh.id)}
		reg.CounterFunc("sailfish_shardplane_accepted_total", "frames enqueued to the shard ring", lbl,
			sh.accepted.Load)
		reg.CounterFunc("sailfish_shardplane_processed_total", "frames run to completion by the shard", lbl,
			sh.processed.Load)
		reg.CounterFunc("sailfish_shardplane_ring_full_total", "submits rejected by a full shard ring", lbl,
			sh.ringFull.Load)
		reg.GaugeFunc("sailfish_shardplane_ring_depth", "current shard ring depth", lbl,
			func() float64 { return float64(sh.ring.Len()) })
	}
}
