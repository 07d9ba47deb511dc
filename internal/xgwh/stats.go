package xgwh

import (
	"sync/atomic"

	"sailfish/internal/metrics"
	"sailfish/internal/trace"
)

// gwCounters is the gateway's live counter block. The data plane is still
// driven by exactly one goroutine per gateway (one chip, one pipeline), but
// the observability plane — Stats, ResetStats, the /metrics scrape — reads
// these counters while traffic flows, so every cell is atomic. Increments
// cost one uncontended atomic add each and never allocate, preserving the
// zero-alloc forward path.
type gwCounters struct {
	forwarded     atomic.Uint64
	fallback      atomic.Uint64
	dropped       atomic.Uint64
	totalBytes    atomic.Uint64
	fallbackBytes atomic.Uint64
	// fallbackMiss counts the fallback subset caused by hardware table
	// misses — partial-residency traffic, not service-VNI steering.
	fallbackMiss atomic.Uint64
	units        [2]unitCounters
	// drops counts dropped packets per interned reason code; the
	// string-keyed map in Stats is materialized from it on demand.
	drops [trace.NumReasons]atomic.Uint64
}

type unitCounters struct {
	packets atomic.Uint64
	bytes   atomic.Uint64
}

// Stats returns a coherent-enough snapshot of the counters: each cell is
// read atomically, so values are exact even under live traffic, though
// cross-counter sums may be off by the packets in flight during the read.
// The DropReasons map is materialized from the interned per-reason counters
// on each call (slow path only); the hot path increments a fixed array.
func (g *Gateway) Stats() Stats {
	s := Stats{
		Forwarded:     g.stats.forwarded.Load(),
		Fallback:      g.stats.fallback.Load(),
		Dropped:       g.stats.dropped.Load(),
		TotalBytes:    g.stats.totalBytes.Load(),
		FallbackBytes: g.stats.fallbackBytes.Load(),
		FallbackMiss:  g.stats.fallbackMiss.Load(),
	}
	for u := range g.stats.units {
		s.Units[u] = UnitStats{
			Packets: g.stats.units[u].packets.Load(),
			Bytes:   g.stats.units[u].bytes.Load(),
		}
	}
	s.DropReasons = make(map[string]uint64, len(DropReasons))
	for _, code := range DropReasons {
		if n := g.stats.drops[code].Load(); n > 0 {
			s.DropReasons[code.String()] = n
		}
	}
	return s
}

// ResetStats zeroes the counters. Safe to call while the gateway is
// processing packets; increments racing the reset land on whichever side of
// the zeroing their cell is visited.
func (g *Gateway) ResetStats() {
	g.stats.forwarded.Store(0)
	g.stats.fallback.Store(0)
	g.stats.dropped.Store(0)
	g.stats.totalBytes.Store(0)
	g.stats.fallbackBytes.Store(0)
	g.stats.fallbackMiss.Store(0)
	for u := range g.stats.units {
		g.stats.units[u].packets.Store(0)
		g.stats.units[u].bytes.Store(0)
	}
	for code := range g.stats.drops {
		g.stats.drops[code].Store(0)
	}
}

// RegisterMetrics publishes the gateway's counters into a live registry
// under the given node label. Values are read atomically at scrape time;
// nothing is added to the per-packet path.
func (g *Gateway) RegisterMetrics(reg *metrics.Registry, node string) {
	l := metrics.Labels{"node": node}
	reg.CounterFunc("sailfish_gw_forwarded_total", "packets rewritten and forwarded", l,
		g.stats.forwarded.Load)
	reg.CounterFunc("sailfish_gw_fallback_total", "packets steered to XGW-x86", l,
		g.stats.fallback.Load)
	reg.CounterFunc("sailfish_gw_dropped_total", "packets discarded", l,
		g.stats.dropped.Load)
	reg.CounterFunc("sailfish_gw_bytes_total", "wire bytes seen", l,
		g.stats.totalBytes.Load)
	reg.CounterFunc("sailfish_gw_fallback_bytes_total", "wire bytes steered to XGW-x86", l,
		g.stats.fallbackBytes.Load)
	reg.CounterFunc("sailfish_gw_fallback_miss_total", "fallbacks caused by hardware table misses", l,
		g.stats.fallbackMiss.Load)
	reg.GaugeFunc("sailfish_gw_hardware_coverage", "share of route-resolved packets served by hardware", l,
		func() float64 {
			fwd, miss := float64(g.stats.forwarded.Load()), float64(g.stats.fallbackMiss.Load())
			if fwd+miss == 0 {
				return 0
			}
			return fwd / (fwd + miss)
		})
	reg.GaugeFunc("sailfish_gw_fallback_ratio", "fallback share of completed packets", l,
		func() float64 {
			fwd, fb := float64(g.stats.forwarded.Load()), float64(g.stats.fallback.Load())
			if fwd+fb == 0 {
				return 0
			}
			return fb / (fwd + fb)
		})
	for _, code := range DropReasons {
		reg.CounterFunc("sailfish_gw_drops_total", "packets discarded by reason",
			metrics.Labels{"node": node, "reason": code.String()}, g.stats.drops[code].Load)
	}
}

// EnableStageMetrics attaches per-stage latency histograms (parse, pipeline,
// rewrite; the steer stage belongs to the front end) to the data plane.
// Observation costs one clock read per stage and stays allocation-free; pass
// nil to detach.
func (g *Gateway) EnableStageMetrics(sh *metrics.StageHistograms) {
	g.obs = sh
}
