package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"sailfish/internal/alpm"
	"sailfish/internal/digest"
	"sailfish/internal/heavyhitter"
	"sailfish/internal/lpmindex"
	"sailfish/internal/mashup"
	"sailfish/internal/netpkt"
	"sailfish/internal/placement"
	"sailfish/internal/shardplane"
	"sailfish/internal/slo"
	"sailfish/internal/snat"
	"sailfish/internal/tables"
	"sailfish/internal/trace"
	"sailfish/internal/xgw86"
	"sailfish/internal/xgwdpu"
	"sailfish/internal/xgwh"
)

// Layer probes replay the workload's own inputs — the frames the timed trials
// offer: the window, on the ladder the whole pool — through one layer's public
// functions, in spans of a sixteenth of the calls; the metric is time per
// call. Stand-alone structures (LPM tables, a DPU pool, an x86 node, a session
// store) are filled from the generator's tenant map exactly as the
// deployment's were, so every number is "this layer on this workload's
// packets", also on workloads where the layer sits idle.

// sink keeps probe results live so the compiler cannot drop the calls.
var sink uint64

// probeSet is the workload's inputs in the shapes the probes need.
type probeSet struct {
	in     *inputs
	frames [][]byte // the frames the timed trials offer, without SNAT frames
	expect []expectation
	meta   []netpkt.FrontMeta
	hash   []uint64
	ring   *spanRing
	out    map[string]metric
	now    time.Time
}

func newProbeSet(in *inputs, ring *spanRing, out map[string]metric) *probeSet {
	p := &probeSet{in: in, ring: ring, out: out, now: time.Unix(1_700_000_000, 0)}
	timed := in.frames
	if in.ladderRanks == nil {
		timed = timed[:windowFrames]
	}
	for i, f := range timed {
		if in.expect[i].kind == expectSNAT {
			continue
		}
		p.frames = append(p.frames, f)
		p.expect = append(p.expect, in.expect[i])
	}
	p.meta = make([]netpkt.FrontMeta, len(p.frames))
	p.hash = make([]uint64, len(p.frames))
	return p
}

// A probe makes probePasses passes over its calls, each in probeChunks
// consecutive chunks, one span per chunk. Every pass does the same work in
// the same chunk, so the metric goes through quietSum like a set-up's
// stages: what each chunk costs undisturbed, summed over all the calls.
const (
	probePasses = 3
	probeChunks = 16
)

// timed runs fn over [0, calls), chunk by chunk, probePasses times, records
// the spans under the metric's name and books the estimate per call. fn must
// leave the probed structure as it found it, or at least as costly to probe.
func (p *probeSet) timed(name string, unitNs float64, unit string, calls int, fn func(lo, hi int)) {
	id := p.ring.nameID(name)
	runtime.GC()
	passes := make([][]float64, probePasses)
	for i := range passes {
		for c := 0; c < probeChunks; c++ {
			lo, hi := c*calls/probeChunks, (c+1)*calls/probeChunks
			if hi == lo {
				continue
			}
			t0 := p.ring.now()
			fn(lo, hi)
			t1 := p.ring.now()
			p.ring.add(id, -1, int32(c), t0, t1)
			passes[i] = append(passes[i], float64(t1-t0))
		}
	}
	p.out[name] = metric{quietSum(passes) / float64(calls) / unitNs, unit}
}

func (p *probeSet) ns(name string, calls int, fn func(lo, hi int)) { p.timed(name, 1, "ns", calls, fn) }
func (p *probeSet) us(name string, calls int, fn func(lo, hi int)) {
	p.timed(name, 1e3, "us", calls, fn)
}

func (p *probeSet) count(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// fib is one engine's share of the workload's routes and the addresses that
// look them up. On region-lpm-churn each engine probes the tenant that runs
// on it; elsewhere all three see every tenant prefix.
type fib struct {
	routes []fibRoute
	keys   []netip.Addr
	keyVNI []netpkt.VNI
	update []netip.Prefix // more-specifics to insert and delete
}

type fibRoute struct {
	vni    netpkt.VNI
	prefix netip.Prefix
	route  tables.Route
}

func (p *probeSet) fibFor(engine int) fib {
	var f fib
	if p.in.routes[engine] != nil {
		vni := netpkt.VNI(2000 + engine)
		for _, r := range p.in.routes[engine] {
			f.routes = append(f.routes, fibRoute{vni, r.prefix, tables.Route{Scope: tables.ScopeRemote, Tunnel: r.tunnel}})
		}
		for i, e := range p.expect {
			if e.vni == vni {
				f.keys = append(f.keys, p.meta[i].Flow.Dst)
				f.keyVNI = append(f.keyVNI, vni)
			}
		}
		for _, c := range p.in.churn[engine] {
			f.update = append(f.update, c.prefix)
		}
		return f
	}
	for _, t := range p.in.tenants {
		f.routes = append(f.routes, fibRoute{t.vni, t.prefix, tables.Route{Scope: tables.ScopeLocal}})
	}
	seen := make(map[netip.Prefix]bool)
	for i := range p.frames {
		dst := p.meta[i].Flow.Dst
		f.keys = append(f.keys, dst)
		f.keyVNI = append(f.keyVNI, p.expect[i].vni)
		if m, _ := dst.Prefix(30); len(f.update) < churnPrefixes && !seen[m] {
			seen[m] = true
			f.update = append(f.update, m)
		}
	}
	return f
}

// lpmTable is what alpm.Table and mashup.Table share.
type lpmTable interface {
	Insert(netip.Prefix, tables.Route) error
	Delete(netip.Prefix) bool
	Lookup(netip.Addr) (tables.Route, int, bool)
	Stats() alpm.Stats
}

func (p *probeSet) lpmEngine(name string, t lpmTable, f fib) error {
	for _, r := range f.routes {
		if err := t.Insert(r.prefix, r.route); err != nil {
			return fmt.Errorf("%s insert %v: %w", name, r.prefix, err)
		}
	}
	p.ns(name+".lookup_ns", len(f.keys), func(lo, hi int) {
		for _, k := range f.keys[lo:hi] {
			_, plen, _ := t.Lookup(k)
			sink += uint64(plen)
		}
	})
	var uerr error
	p.ns(name+".update_ns", len(f.update), func(lo, hi int) {
		for _, u := range f.update[lo:hi] {
			if err := t.Insert(u, tables.Route{Scope: tables.ScopeLocal}); err != nil {
				uerr = err
			}
			t.Delete(u)
		}
	})
	st := t.Stats()
	p.count(name+".tcam_pivots", float64(st.TCAMEntries), "count")
	p.count(name+".sram_slots", float64(st.SRAMEntries), "count")
	return uerr
}

func key4(a netip.Addr) []byte { b := a.As4(); return b[:] }

// tableProbes covers netpkt, lb, the lookup tables and the three LPM engines.
func (p *probeSet) tableProbes(s *regionSUT) error {
	n := len(p.frames)
	var perr error
	p.ns("netpkt.parse_front_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f := p.frames[i]
			if err := netpkt.ParseFront(f, &p.meta[i]); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return fmt.Errorf("parse front: %w", perr)
	}
	for i := range p.meta {
		p.hash[i] = p.meta[i].Flow.FastHash()
	}
	// What the daemon's synthesizeOuter does per datagram: wrap the socket
	// payload in the outer headers the kernel consumed.
	sbuf := netpkt.NewSerializeBuffer(128, 4096)
	loopback := netip.MustParseAddr("127.0.0.1")
	p.ns("netpkt.serialize_ns", n, func(lo, hi int) {
		for _, f := range p.frames[lo:hi] {
			if err := netpkt.SerializeLayers(sbuf, f[outerLen:],
				&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
				&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP, SrcIP: loopback, DstIP: loopback},
				&netpkt.UDP{SrcPort: 49152, DstPort: netpkt.VXLANPort}); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return fmt.Errorf("serialize: %w", perr)
	}
	fe := s.d.Region.FrontEnd
	p.ns("lb.route_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_, node, err := fe.Route(p.meta[i].VNI, p.hash[i])
			if err != nil {
				perr = err
			}
			sink += uint64(node)
		}
	})
	if perr != nil {
		return fmt.Errorf("front-end route: %w", perr)
	}

	trieFIB := p.fibFor(0)
	rt := tables.NewVXLANRoutingTable()
	for _, r := range trieFIB.routes {
		if err := rt.Insert(r.vni, r.prefix, r.route); err != nil {
			return err
		}
	}
	p.ns("tables.route_lookup_ns", len(trieFIB.keys), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k := trieFIB.keys[i]
			if _, _, err := rt.Resolve(trieFIB.keyVNI[i], k); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return fmt.Errorf("route table resolve: %w", perr)
	}
	vmnc := digest.New[netip.Addr]()
	for i := range p.frames {
		vmnc.Insert(p.expect[i].vni, p.meta[i].Flow.Dst, p.expect[i].nc)
	}
	misses := 0
	p.ns("digest.lookup_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, ok := vmnc.Lookup(p.expect[i].vni, p.meta[i].Flow.Dst); !ok {
				misses++
			}
		}
	})
	if misses > 0 {
		return fmt.Errorf("digest table: %d of %d lookups missed", misses, n)
	}
	acl := tables.NewACL() // the workloads install no rules: the check every packet pays
	p.ns("tables.acl_check_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += uint64(acl.Check(p.meta[i].VNI, p.meta[i].Flow))
		}
	})

	at, err := alpm.Build[tables.Route](32, 16, nil)
	if err != nil {
		return err
	}
	if err := p.lpmEngine("alpm", at, p.fibFor(1)); err != nil {
		return err
	}
	mt, err := mashup.New[tables.Route](32, mashup.DefaultTileCapacity, mashup.DefaultMaxChain)
	if err != nil {
		return err
	}
	mf := p.fibFor(2)
	if err := p.lpmEngine("mashup", mt, mf); err != nil {
		return err
	}
	idx := lpmindex.New()
	for i, r := range mf.routes {
		idx.Insert(key4(r.prefix.Addr()), r.prefix.Bits(), i)
	}
	p.ns("lpmindex.walkpath_ns", len(mf.keys), func(lo, hi int) {
		for _, k := range mf.keys[lo:hi] {
			idx.WalkPath(key4(k), 32, func(id, depth int) { sink += uint64(depth) })
		}
	})
	return nil
}

// controlProbes prices the control plane on a deployment the run no longer
// needs: the route-update fan-out, a residency promotion, a placement cycle.
func (p *probeSet) controlProbes(s *regionSUT) error {
	f := p.fibFor(0)
	cl := s.d.Region.Clusters[0]
	vni := f.routes[0].vni
	var cerr error
	p.us("controller.route_update_us", len(f.update), func(lo, hi int) {
		for _, u := range f.update[lo:hi] {
			if err := cl.InstallRoute(vni, u, tables.Route{Scope: tables.ScopeLocal}); err != nil {
				cerr = err
			}
			cl.RemoveRoute(vni, u)
		}
	})
	if cerr != nil {
		return fmt.Errorf("cluster route update: %w", cerr)
	}
	// Promote and demote keys: on software-placed tenants that is a table
	// push and an eviction, on hardware-placed ones the controller's no-op.
	const keys = 512
	ctl := s.d.Controller
	at := func(i int) int { return i * 7 % len(p.frames) } // distinct keys: 7 shares no factor with the frame count
	for i := 0; i < keys; i++ {
		// Start every key outside hardware, so each timed pair does the same work.
		if _, err := ctl.DemoteEntry(p.expect[at(i)].vni, p.meta[at(i)].Flow.Dst); err != nil {
			return fmt.Errorf("demote: %w", err)
		}
	}
	p.us("controller.promote_us", keys, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			j := at(i)
			if _, err := ctl.PromoteEntry(p.expect[j].vni, p.meta[j].Flow.Dst); err != nil {
				cerr = err
			}
			if _, err := ctl.DemoteEntry(p.expect[j].vni, p.meta[j].Flow.Dst); err != nil {
				cerr = err
			}
		}
	})
	if cerr != nil {
		return fmt.Errorf("promote/demote: %w", cerr)
	}
	if s.loop != nil {
		return nil // the ladder's own cycles were timed inside its trials
	}
	hh := heavyhitter.NewTracker(1024)
	for i := range p.meta {
		hh.Observe(0, p.meta[i].VNI, p.hash[i], p.meta[i].Flow.Dst, p.meta[i].WireLen)
	}
	loop := placement.New(placement.Config{Now: func() time.Time { return p.now }}, ctl, hh)
	// One cycle, one span: a second one would find the moves already made.
	t0 := p.ring.now()
	rep := loop.RunCycle()
	t1 := p.ring.now()
	p.ring.add(p.ring.nameID("placement.cycle_us"), -1, -1, t0, t1)
	p.out["placement.cycle_us"] = metric{float64(t1-t0) / 1e3, "us"}
	p.count("placement.moves_per_cycle", float64(rep.Promoted+rep.Demoted+rep.PromotedDPU+rep.DemotedDPU), "count")
	return nil
}

// tierProbes builds a stand-alone DPU pool, x86 node and session store from
// the generator's tenant map and pushes the pool's frames through each.
func (p *probeSet) tierProbes() error {
	f := p.fibFor(0)
	// On the churn workload the stand-alone tiers carry the trie tenant only,
	// so only its frames resolve there.
	var frames [][]byte
	var expect []expectation
	var flows []netpkt.Flow
	for i := range p.frames {
		if p.in.routes[0] == nil || p.expect[i].vni == f.routes[0].vni {
			frames, expect, flows = append(frames, p.frames[i]), append(expect, p.expect[i]), append(flows, p.meta[i].Flow)
		}
	}
	n := len(frames)
	poolIPs := []netip.Addr{netip.MustParseAddr("203.0.113.10"), netip.MustParseAddr("203.0.113.11"),
		netip.MustParseAddr("203.0.113.12"), netip.MustParseAddr("203.0.113.13")}

	dpu := xgwdpu.NewPool(xgwdpu.Config{Devices: 2, GatewayIP: gatewayIP})
	x86cfg := xgw86.DefaultConfig()
	x86cfg.GatewayIP, x86cfg.PublicIPs = gatewayIP, poolIPs
	x86 := xgw86.NewNode(x86cfg)
	for _, r := range f.routes {
		if err := dpu.InstallRoute(r.vni, r.prefix, r.route); err != nil {
			return err
		}
		if err := x86.Routes.Insert(r.vni, r.prefix, r.route); err != nil {
			return err
		}
	}
	for i := range frames {
		if f.routes[0].route.Scope == tables.ScopeLocal {
			if err := dpu.InstallVM(expect[i].vni, flows[i].Dst, expect[i].nc); err != nil {
				return err
			}
			x86.VMNC.Insert(expect[i].vni, flows[i].Dst, expect[i].nc)
		}
	}
	bad := 0
	p.ns("xgwdpu.process_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fr := frames[i]
			res, served, err := dpu.ProcessOn(i&1, fr, p.now)
			if err != nil || !served || res.NC != expect[i].nc {
				bad++
			}
		}
	})
	p.ns("xgw86.fallback_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fr := frames[i]
			res, err := x86.ProcessFallback(fr, p.now)
			if err != nil || res.NC != expect[i].nc {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("tier probes: %d wrong answers from the stand-alone DPU pool or x86 node", bad)
	}
	// SNAT: the first pass opens a session per flow, the timed pass translates
	// on established sessions — the steady state of the outbound path.
	for _, fr := range frames {
		if _, err := x86.ProcessSNATOutbound(fr, p.now); err != nil {
			return fmt.Errorf("snat outbound: %w", err)
		}
	}
	p.ns("xgw86.snat_out_ns", n, func(lo, hi int) {
		for _, fr := range frames[lo:hi] {
			if res, err := x86.ProcessSNATOutbound(fr, p.now); err != nil || !res.ToInternet {
				bad++
			}
		}
	})
	svc := snat.NewService(snat.ServiceConfig{Store: snat.Config{PublicIPs: poolIPs, JournalDepth: 2 * n}})
	store := svc.Active()
	for i := range flows {
		if _, err := store.Translate(tables.SNATKey{VNI: expect[i].vni, Flow: flows[i]}, p.now); err != nil {
			return fmt.Errorf("snat translate: %w", err)
		}
	}
	var rep snat.SyncReport
	t0 := p.ring.now()
	rep = svc.Sync(p.now)
	t1 := p.ring.now()
	p.ring.add(p.ring.nameID("snat.sync_ns_per_delta"), -1, -1, t0, t1)
	if rep.DeltasApplied == 0 {
		return fmt.Errorf("snat sync applied no deltas (snapshots %d, failed %d)", rep.Snapshots, rep.Failed)
	}
	p.out["snat.sync_ns_per_delta"] = metric{float64(t1-t0) / float64(rep.DeltasApplied), "ns"}
	p.ns("snat.translate_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := store.Translate(tables.SNATKey{VNI: expect[i].vni, Flow: flows[i]}, p.now); err != nil {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("snat probes: %d failed translations", bad)
	}
	return nil
}

// observerProbes prices the observers as the daemon wires them, and the
// shard plane's single-thread ring hop (the multi-core rows stay out until
// the box has the cores).
func (p *probeSet) observerProbes() error {
	n := len(p.frames)
	hh := heavyhitter.NewTracker(1024)
	p.ns("heavyhitter.observe_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hh.Observe(0, p.meta[i].VNI, p.hash[i], p.meta[i].Flow.Dst, p.meta[i].WireLen)
		}
	})
	rec := trace.New(trace.Config{Shards: 8, SlotsPerShard: 4096, SampleShift: 6})
	dev := rec.InternDevice("xgwh-0")
	p.ns("trace.record_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rec.Record(trace.Event{TimeNs: int64(i), FlowHash: p.hash[i], VNI: p.meta[i].VNI, Dev: dev,
				Stage: trace.StageGateway, Verdict: trace.VerdictForward})
		}
	})
	col := slo.NewCollector()
	for _, t := range p.in.tenants {
		col.Track(t.vni)
	}
	for e := range p.in.routes {
		col.Track(netpkt.VNI(2000 + e))
	}
	p.ns("slo.book_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			col.Forward(p.meta[i].VNI)
		}
	})
	ring := shardplane.NewRing(1024, 2048)
	full := 0
	p.ns("shardplane.ring_hop_ns", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f := p.frames[i]
			if !ring.Push(f, int64(i)) {
				full++
			}
			fr, _, ok := ring.Peek()
			if !ok {
				full++
			}
			sink += uint64(len(fr))
			ring.Advance()
		}
	})
	if full > 0 {
		return fmt.Errorf("ring hop: %d failed pushes or pops on an empty ring", full)
	}
	return nil
}

// gatewayProbes times one gateway's ProcessPacketWith on frames that hit its
// tables (indices the traced section saw forwarded in hardware) and on table
// misses (the same frames under a VNI nobody installed).
func (p *probeSet) gatewayProbes(s *regionSUT, hits []uint32) error {
	if len(hits) == 0 {
		return fmt.Errorf("gateway probe: the traced section forwarded nothing in hardware")
	}
	sc := xgwh.NewPacketScratch()
	r := s.d.Region
	type call struct {
		gw  *xgwh.Gateway
		raw []byte
		nc  netip.Addr
	}
	calls := make([]call, 0, len(hits))
	var fm netpkt.FrontMeta
	for _, i := range hits {
		raw := p.in.frames[i]
		if err := netpkt.ParseFront(raw, &fm); err != nil {
			return err
		}
		cid, nidx, err := r.FrontEnd.Route(fm.VNI, fm.Flow.FastHash())
		if err != nil {
			return err
		}
		live := r.Clusters[cid].LiveNodes()
		gw, ok := live[nidx%len(live)].GW.(*xgwh.Gateway)
		if !ok {
			return fmt.Errorf("gateway probe: node gateway is %T", live[nidx%len(live)].GW)
		}
		// Residency may have moved since the traced section saw the frame
		// forwarded; keep the frames that still hit.
		if res, err := gw.ProcessPacketWith(sc, raw, p.now); err == nil && res.Action == xgwh.ActionForward {
			calls = append(calls, call{gw, raw, p.in.expect[i].nc})
		}
	}
	if len(calls) < 256 {
		return fmt.Errorf("gateway probe: only %d of %d frames still hit the hardware tables", len(calls), len(hits))
	}
	bad := 0
	p.ns("xgwh.process_ns", len(calls), func(lo, hi int) {
		for _, c := range calls[lo:hi] {
			res, err := c.gw.ProcessPacketWith(sc, c.raw, p.now)
			if err != nil || res.Action != xgwh.ActionForward || res.NC != c.nc {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("gateway probe: %d of %d resident frames did not forward", bad, len(calls))
	}
	missed := make([][]byte, len(calls))
	for i, c := range calls {
		m := append([]byte(nil), c.raw...)
		m[outerLen+4], m[outerLen+5], m[outerLen+6] = 0xFF, 0xFF, 0xF0 // VNI 16777200: installed nowhere
		missed[i] = m
	}
	p.ns("xgwh.miss_ns", len(calls), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := calls[i]
			res, err := c.gw.ProcessPacketWith(sc, missed[i], p.now)
			if err != nil || res.Action != xgwh.ActionFallback || !res.FallbackMiss {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("gateway probe: %d of %d unknown-VNI frames did not miss", bad, len(calls))
	}
	return nil
}
