// Package xgwdpu models XGW-D, a SmartNIC/DPU pool that sits between the
// XGW-H hardware tier and the XGW-x86 software pool (Gryphon-style
// hierarchical co-offloading). Each device holds a full copy of the warm
// table set in on-board DRAM — capacity far beyond Tofino SRAM — and
// forwards at a per-packet cost between the switch ASIC and one x86 core.
//
// The pool plays the middle rung of the residency ladder: entries too cold
// for XGW-H but too hot for the x86 long tail are installed here, and a
// packet that misses the hardware tables gets one DPU lookup before it
// falls through to the x86 pool. A miss is not a drop — the packet still
// has the x86 tier below it — so the pool distinguishes misses (route/VM
// not resident, service-scope traffic whose SNAT state lives on x86) from
// true drops (unparseable frames), mirroring the xgwh/xgw86 fallback-vs-drop
// split.
package xgwdpu

import (
	"errors"
	"net/netip"
	"strconv"
	"sync/atomic"
	"time"

	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/tables"
	"sailfish/internal/trace"
)

// ErrOverCapacity is returned by the install path when the per-device table
// budget is exhausted; the placement ladder treats it as a deferred
// promotion, exactly like the hardware tier's capacity gate.
var ErrOverCapacity = errors.New("xgwdpu: device table capacity exhausted")

// DropReasons is the subset of the trace reason space the DPU tier emits, in
// code order: the keys of Stats().DropReasons and the reason labels of
// sailfish_dpu_drops_total. Read-only.
var DropReasons = []trace.Reason{trace.ReasonParseError}

// Config sets the shape of one DPU pool.
type Config struct {
	// Devices is the number of SmartNICs in the pool. Flows are spread
	// across devices by the steering flow hash, like the x86 pool.
	Devices int
	// EntryCapacity is the per-device table budget. Every device holds a
	// full copy of the warm set, so this is also the pool's entry ceiling.
	// It should be set well above tofino.Layout SRAM capacity — DRAM on
	// the NIC, not SRAM on the ASIC.
	EntryCapacity int
	// DevicePps is the packet rate one device sustains — between the
	// switch ASIC (billions of pps) and one x86 core (~0.78 Mpps).
	DevicePps float64
	// LatencyUs is the unloaded forwarding latency: between the ASIC's
	// sub-microsecond pass and the x86 pool's 40 µs.
	LatencyUs float64
	// GatewayIP is the outer source for re-encapsulated packets.
	GatewayIP netip.Addr
}

// DefaultConfig models a pool of two 100G SmartNICs: 8M entries of DRAM
// table space per device (4× the 2M-entry hardware cluster default), ~25
// Mpps per device, 8 µs forwarding latency.
func DefaultConfig() Config {
	return Config{
		Devices:       2,
		EntryCapacity: 8_000_000,
		DevicePps:     25_000_000,
		LatencyUs:     8,
	}
}

// PoolPps returns the pool's aggregate packet-rate ceiling.
func (c Config) PoolPps() float64 { return float64(c.Devices) * c.DevicePps }

// device is one SmartNIC's private forwarding scratch. The warm tables are
// shared (every device carries the same copy), but parse/serialize state is
// per device so independent lanes can drive distinct devices concurrently,
// each lane serializing its own device like an x86 pool node.
type device struct {
	parser netpkt.Parser
	vpkt   netpkt.GatewayPacket
	sbuf   *netpkt.SerializeBuffer
	encap  netpkt.Encap
	trDev  uint16
}

// Pool is the DPU tier: shared warm tables plus per-device scratch. Table
// mutation (control plane) and packet processing must not overlap on the
// same device; the region serializes per-device access the same way it
// serializes x86 pool nodes.
type Pool struct {
	cfg Config

	// Warm forwarding state, shared across devices: conceptually every
	// device holds a replica, so one insert populates the whole pool and
	// the capacity gate is per-device.
	Routes *tables.VXLANRoutingTable
	VMNC   *tables.VMNCTable

	devs []device

	// entries tracks the installed warm set against cfg.EntryCapacity.
	entries atomic.Int64

	stats poolCounters

	tr *trace.Recorder
}

// Stats counts the pool's behavioral outcomes.
type Stats struct {
	Forwarded   uint64
	MissRoute   uint64
	MissVM      uint64
	MissService uint64
	Dropped     uint64
	// DropReasons breaks Dropped down by interned reason; the per-reason
	// sum equals Dropped.
	DropReasons map[string]uint64
	Entries     int
	Capacity    int
	Devices     int
}

// Misses returns the total fall-throughs to the x86 tier.
func (s Stats) Misses() uint64 { return s.MissRoute + s.MissVM + s.MissService }

// poolCounters is the live atomic counter block: processing is serialized
// per device, but Stats() and /metrics scrape while traffic flows.
type poolCounters struct {
	forwarded   atomic.Uint64
	missRoute   atomic.Uint64
	missVM      atomic.Uint64
	missService atomic.Uint64
	dropped     atomic.Uint64
	drops       [trace.NumReasons]atomic.Uint64
}

// NewPool returns a pool with empty warm tables.
func NewPool(cfg Config) *Pool {
	if cfg.Devices <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.EntryCapacity <= 0 {
		cfg.EntryCapacity = DefaultConfig().EntryCapacity
	}
	if cfg.LatencyUs <= 0 {
		cfg.LatencyUs = DefaultConfig().LatencyUs
	}
	if cfg.DevicePps <= 0 {
		cfg.DevicePps = DefaultConfig().DevicePps
	}
	p := &Pool{
		cfg:    cfg,
		Routes: tables.NewVXLANRoutingTable(),
		VMNC:   tables.NewVMNCTable(),
		devs:   make([]device, cfg.Devices),
	}
	for i := range p.devs {
		p.devs[i].sbuf = netpkt.NewSerializeBuffer(128, 2048)
	}
	return p
}

// Config returns the pool's capacities.
func (p *Pool) Config() Config { return p.cfg }

// Devices returns the number of SmartNICs in the pool.
func (p *Pool) Devices() int { return len(p.devs) }

// EntryCount returns the installed warm-set size.
func (p *Pool) EntryCount() int { return int(p.entries.Load()) }

// Capacity returns the per-device (== pool) entry budget.
func (p *Pool) Capacity() int { return p.cfg.EntryCapacity }

// --- Control plane: capacity-gated warm-set installs ---

// InstallRoute inserts a route into the warm set, rejecting the push when
// the device table budget is exhausted.
func (p *Pool) InstallRoute(vni netpkt.VNI, prefix netip.Prefix, r tables.Route) error {
	if int(p.entries.Load())+1 > p.cfg.EntryCapacity {
		return ErrOverCapacity
	}
	if err := p.Routes.Insert(vni, prefix, r); err != nil {
		return err
	}
	p.entries.Add(1)
	return nil
}

// RemoveRoute deletes a warm route, releasing its table slot.
func (p *Pool) RemoveRoute(vni netpkt.VNI, prefix netip.Prefix) {
	if p.Routes.Delete(vni, prefix) {
		p.entries.Add(-1)
	}
}

// InstallVM inserts a VM→NC mapping into the warm set, rejecting the push
// when the device table budget is exhausted.
func (p *Pool) InstallVM(vni netpkt.VNI, vm, nc netip.Addr) error {
	if int(p.entries.Load())+1 > p.cfg.EntryCapacity {
		return ErrOverCapacity
	}
	p.VMNC.Insert(vni, vm, nc)
	p.entries.Add(1)
	return nil
}

// RemoveVM deletes a warm VM mapping, releasing its table slot.
func (p *Pool) RemoveVM(vni netpkt.VNI, vm netip.Addr) {
	if p.VMNC.Delete(vni, vm) {
		p.entries.Add(-1)
	}
}

// Stats returns a snapshot of the behavioral counters, safe from any
// goroutine while traffic flows.
func (p *Pool) Stats() Stats {
	s := Stats{
		Forwarded:   p.stats.forwarded.Load(),
		MissRoute:   p.stats.missRoute.Load(),
		MissVM:      p.stats.missVM.Load(),
		MissService: p.stats.missService.Load(),
		Dropped:     p.stats.dropped.Load(),
		DropReasons: make(map[string]uint64, len(DropReasons)),
		Entries:     p.EntryCount(),
		Capacity:    p.cfg.EntryCapacity,
		Devices:     len(p.devs),
	}
	for _, code := range DropReasons {
		s.DropReasons[code.String()] = p.stats.drops[code].Load()
	}
	return s
}

// ResetStats zeroes the behavioral counters (table state is untouched).
func (p *Pool) ResetStats() {
	p.stats.forwarded.Store(0)
	p.stats.missRoute.Store(0)
	p.stats.missVM.Store(0)
	p.stats.missService.Store(0)
	p.stats.dropped.Store(0)
	for i := range p.stats.drops {
		p.stats.drops[i].Store(0)
	}
}

// EnableTracing attaches the pool to a flight recorder, each device
// interned under "<prefix>-<i>". Wire before traffic starts.
func (p *Pool) EnableTracing(rec *trace.Recorder, devicePrefix string) {
	p.tr = rec
	if rec == nil {
		return
	}
	for i := range p.devs {
		p.devs[i].trDev = rec.InternDevice(devicePrefix + "-" + strconv.Itoa(i))
	}
}

// emit records a verdict of device d under the recorder's sampling rule.
func (p *Pool) emit(d *device, verdict trace.Verdict, code trace.Reason, fh uint64, vni netpkt.VNI, now time.Time) {
	if tr := p.tr; tr != nil {
		tr.Emit(trace.Event{TimeNs: now.UnixNano(), FlowHash: fh, VNI: vni, Dev: d.trDev,
			Stage: trace.StageDPU, Verdict: verdict, Code: code})
	}
}

// drop books one discarded packet: the dropped total, its reason cell and
// the always-on flight-recorder event.
func (p *Pool) drop(d *device, code trace.Reason, fh uint64, vni netpkt.VNI, now time.Time) {
	p.stats.dropped.Add(1)
	p.stats.drops[code].Add(1)
	p.emit(d, trace.VerdictDrop, code, fh, vni, now)
}

// RegisterMetrics publishes the pool's counters into a live registry under
// the sailfish_dpu_* families.
func (p *Pool) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("sailfish_dpu_forwarded_total", "packets forwarded by the DPU tier", nil,
		p.stats.forwarded.Load)
	reg.CounterFunc("sailfish_dpu_miss_total", "DPU table misses falling through to the x86 tier",
		metrics.Labels{"reason": "route"}, p.stats.missRoute.Load)
	reg.CounterFunc("sailfish_dpu_miss_total", "DPU table misses falling through to the x86 tier",
		metrics.Labels{"reason": "vm"}, p.stats.missVM.Load)
	reg.CounterFunc("sailfish_dpu_miss_total", "DPU table misses falling through to the x86 tier",
		metrics.Labels{"reason": "service"}, p.stats.missService.Load)
	reg.CounterFunc("sailfish_dpu_dropped_total", "packets dropped by the DPU tier", nil,
		p.stats.dropped.Load)
	for _, code := range DropReasons {
		reg.CounterFunc("sailfish_dpu_drops_total", "DPU-tier drops by reason",
			metrics.Labels{"reason": code.String()}, p.stats.drops[code].Load)
	}
	reg.GaugeFunc("sailfish_dpu_entries", "installed warm-set entries", nil,
		func() float64 { return float64(p.entries.Load()) })
	reg.GaugeFunc("sailfish_dpu_capacity_entries", "per-device warm-set budget", nil,
		func() float64 { return float64(p.cfg.EntryCapacity) })
	reg.GaugeFunc("sailfish_dpu_devices", "SmartNICs in the pool", nil,
		func() float64 { return float64(len(p.devs)) })
}

// --- Behavioral data plane ---

// ForwardResult reports the outcome of DPU forwarding.
type ForwardResult struct {
	// Out is the emitted wire packet; valid until the device's next call.
	Out []byte
	// NC is the next hop for the re-encapsulated packet.
	NC netip.Addr
	// LatencyUs is the modeled per-packet cost.
	LatencyUs float64
}

// ProcessOn attempts warm-tier forwarding on device dev. Outcomes:
//
//   - served == true: the packet left the DPU rewritten toward its NC.
//   - served == false, err == nil: warm-set miss (route/VM not resident,
//     or service-scope traffic whose SNAT state lives on x86) — the caller
//     falls through to the x86 pool. Not a drop.
//   - err != nil: the packet died here (unparseable frame); the drop is
//     booked on the DPU stage.
//
// Calls on the same device must be serialized (per-device scratch); calls
// on distinct devices may run concurrently.
func (p *Pool) ProcessOn(dev int, raw []byte, now time.Time) (ForwardResult, bool, error) {
	d := &p.devs[dev]
	if err := d.parser.Parse(raw, &d.vpkt); err != nil {
		// d.vpkt holds the previous packet's fields after a failed parse,
		// so the drop event carries no flow identity.
		p.drop(d, trace.ReasonParseError, 0, 0, now)
		return ForwardResult{}, false, err
	}
	fh := d.vpkt.InnerFlow().FastHash()
	vni, scope, nc, err := tables.ResolveNC(p.Routes, p.VMNC, d.vpkt.VXLAN.VNI, d.vpkt.InnerDst())
	switch {
	case err == tables.ErrNoVM:
		p.stats.missVM.Add(1)
	case err != nil:
		p.stats.missRoute.Add(1)
	case scope == tables.ScopeService:
		// Stateful SNAT lives on the x86 pool; the DPU never holds
		// session state, so service-scope traffic always falls through.
		p.stats.missService.Add(1)
	default:
		out, err := d.encap.VXLAN(d.sbuf, d.vpkt.VXLAN.Payload(), p.cfg.GatewayIP, nc, d.vpkt.OuterUDP.SrcPort, vni)
		if err != nil {
			return ForwardResult{}, false, err
		}
		p.stats.forwarded.Add(1)
		p.emit(d, trace.VerdictForward, 0, fh, vni, now)
		return ForwardResult{Out: out, NC: nc, LatencyUs: p.cfg.LatencyUs}, true, nil
	}
	p.emit(d, trace.VerdictFallback, 0, fh, vni, now)
	return ForwardResult{}, false, nil
}
