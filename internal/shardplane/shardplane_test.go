package shardplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/heavyhitter"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/tables"
	"sailfish/internal/trace"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func t0() time.Time             { return time.Unix(0, 0) }

func smallConfig() cluster.Config {
	c := cluster.DefaultConfig()
	c.NodesPerCluster = 3
	c.EntryCapacity = 1000
	return c
}

// buildFlowPacket builds one encapsulated frame; src and srcPort vary the
// five-tuple so tests can spread (or pin) flows across shards.
func buildFlowPacket(t testing.TB, vni netpkt.VNI, src, dst string, srcPort uint16) []byte {
	t.Helper()
	b := netpkt.NewSerializeBuffer(128, 256)
	raw, err := (&netpkt.BuildSpec{
		VNI:      vni,
		OuterSrc: addr("10.1.1.11"), OuterDst: addr("10.255.0.1"),
		InnerSrc: addr(src), InnerDst: addr(dst),
		Proto: netpkt.IPProtocolTCP, SrcPort: srcPort, DstPort: 80,
	}).Build(b)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// installTenant wires one tenant into a region cluster + steering.
func installTenant(t testing.TB, r *cluster.Region, id int, vni netpkt.VNI) {
	t.Helper()
	c := r.Clusters[id]
	if err := c.InstallRoute(vni, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal}); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM(vni, addr("192.168.0.5"), addr("100.64.0.5")); err != nil {
		t.Fatal(err)
	}
	r.FrontEnd.Steering.Assign(vni, id)
}

// submitAll pushes every frame, retrying on ring backpressure.
func submitAll(t testing.TB, p *Plane, raws [][]byte) {
	t.Helper()
	for _, raw := range raws {
		for i := 0; !p.Submit(raw, t0()); i++ {
			if i > 1_000_000 {
				t.Fatal("submit stuck: ring never drained")
			}
			runtime.Gosched()
		}
	}
}

// nonzero filters a reason map down to its nonzero entries.
func nonzero(m map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range m {
		if v > 0 {
			out[k] = v
		}
	}
	return out
}

// sumReasons merges per-subsystem reason maps, dropping zero cells.
func sumReasons(ms ...map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return nonzero(out)
}

// mergedReasons materializes one stage of a merged drop tally as a
// reason→count map.
func mergedReasons(dcs []trace.DropCount, st trace.Stage) map[string]uint64 {
	m := map[string]uint64{}
	for _, dc := range dcs {
		if dc.Stage == st {
			m[dc.Reason] = dc.Count
		}
	}
	return m
}

// buildParityWorld builds one copy of the seeded mixed-workload deployment:
// five clusters (forwarding, disabled, no live nodes, no healthy ports,
// degraded-onto-the-pool), a two-node XGW-x86 pool that owns the degraded
// tenant and a demoted tenant's tables, and a rate-shaped tenant whose
// token budget admits only part of its traffic. The returned packet list is
// deterministically shuffled, so two calls yield byte-identical worlds —
// the reference and sharded runs of the parity tests.
func buildParityWorld(t testing.TB) (*cluster.Region, [][]byte) {
	t.Helper()
	r := cluster.NewRegion(smallConfig(), 5, 2)
	for id, vni := range []netpkt.VNI{100, 101, 102, 103, 104} {
		installTenant(t, r, id, vni)
	}
	r.SetClusterEnabled(1, false)
	for i := range r.Clusters[2].Nodes {
		r.Clusters[2].FailNode(i)
	}
	for _, n := range r.Clusters[3].Nodes {
		for p := 0; p < cluster.PortsPerNode; p++ {
			n.FailPort(p)
		}
	}
	if !r.SetDegraded(4, true) {
		t.Fatal("SetDegraded(4) refused")
	}

	// Tenant 105: installed then demoted from hardware — its packets take
	// the §5 residency fallback. The pool holds 104's and 105's tables; a
	// 105 packet for a VM the pool never learned dies there.
	installTenant(t, r, 0, 105)
	if !r.Clusters[0].RemoveVM(105, addr("192.168.0.5")) {
		t.Fatal("demote: VM not resident in hardware")
	}
	for _, fb := range r.Fallback {
		for _, vni := range []netpkt.VNI{104, 105} {
			fb.Routes.Insert(vni, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
			fb.VMNC.Insert(vni, addr("192.168.0.5"), addr("100.64.0.5"))
		}
	}

	// Tenant 107: SLA-shaped on every cluster-0 node with a burst that
	// admits exactly two of its packets per node at the fixed test clock
	// (rate 0 = no refill), so part of its traffic drops meter_exceeded.
	installTenant(t, r, 0, 107)
	shapedLen := len(buildFlowPacket(t, 107, "192.168.3.1", "192.168.0.5", 2000))
	for _, n := range r.Clusters[0].AllNodes() {
		n.GW.InstallShape(107, 0, float64(2*shapedLen))
	}

	var raws [][]byte
	// 24 forwarding flows, 8 packets each.
	for f := 0; f < 24; f++ {
		p := buildFlowPacket(t, 100, fmt.Sprintf("192.168.1.%d", f+1), "192.168.0.5", uint16(1000+f))
		for k := 0; k < 8; k++ {
			raws = append(raws, p)
		}
	}
	// Six shaped flows, four packets each: 24 packets against a two-per-
	// node budget.
	for f := 0; f < 6; f++ {
		p := buildFlowPacket(t, 107, fmt.Sprintf("192.168.3.%d", f+1), "192.168.0.5", uint16(2000+f))
		for k := 0; k < 4; k++ {
			raws = append(raws, p)
		}
	}
	// Four rounds of every drop and fallback shape, each round its own
	// flows.
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("192.168.2.%d", i+1)
		sport := uint16(3000 + i)
		raws = append(raws,
			[]byte{1, 2, 3}, // front parse_error
			buildFlowPacket(t, 999, src, "192.168.0.5", sport),  // no_route
			buildFlowPacket(t, 101, src, "192.168.0.5", sport),  // cluster_disabled
			buildFlowPacket(t, 102, src, "192.168.0.5", sport),  // no_live_node
			buildFlowPacket(t, 103, src, "192.168.0.5", sport),  // no_healthy_port
			buildFlowPacket(t, 104, src, "192.168.0.5", sport),  // degraded → pool carries
			buildFlowPacket(t, 105, src, "192.168.0.5", sport),  // demoted → fallback miss, pool completes
			buildFlowPacket(t, 105, src, "192.168.0.99", sport), // demoted → pool no_vm → fallback_error
		)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(raws), func(i, j int) {
		raws[i], raws[j] = raws[j], raws[i]
	})
	return r, raws
}

// gwTotals sums forwarded/dropped and per-reason drops across every
// hardware gateway of the region (main and backup halves).
func gwTotals(r *cluster.Region) (fwd, drop uint64, reasons map[string]uint64) {
	reasons = map[string]uint64{}
	for _, c := range r.Clusters {
		for _, n := range c.AllNodes() {
			st := n.GW.Stats()
			fwd += st.Forwarded
			drop += st.Dropped
			for k, v := range st.DropReasons {
				reasons[k] += v
			}
		}
	}
	return fwd, drop, nonzero(reasons)
}

func TestShardPlaneForwardAndFlowAffinity(t *testing.T) {
	r := cluster.NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	p := New(r, Config{Shards: 4})
	defer p.Close()

	// One flow, many packets: every packet must land on the same shard.
	raw := buildFlowPacket(t, 100, "192.168.0.1", "192.168.0.5", 999)
	for i := 0; i < 50; i++ {
		if !p.Submit(raw, t0()) {
			t.Fatal("submit failed")
		}
	}
	p.Drain()
	owners := 0
	for _, ss := range p.ShardStats() {
		if ss.Accepted > 0 {
			owners++
			if ss.Accepted != 50 || ss.Processed != 50 {
				t.Fatalf("owning shard stats: %+v", ss)
			}
		}
	}
	if owners != 1 {
		t.Fatalf("one flow landed on %d shards, want 1", owners)
	}
	st := p.Stats()
	if st.Region.Forwarded != 50 || st.Accepted != 50 || st.Processed != 50 {
		t.Fatalf("merged stats: %+v", st)
	}

	// Many flows must spread: with 64 distinct five-tuples, more than one
	// shard has to take traffic.
	for i := 0; i < 64; i++ {
		raw := buildFlowPacket(t, 100, fmt.Sprintf("192.168.0.%d", i+1), "192.168.0.5", uint16(1000+i))
		submitAll(t, p, [][]byte{raw})
	}
	p.Drain()
	busy := 0
	for _, ss := range p.ShardStats() {
		if ss.Accepted > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("64 flows landed on %d shard(s); RSS spread broken", busy)
	}
}

func TestShardPlaneBackpressureAndOversize(t *testing.T) {
	r := cluster.NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	release := make(chan struct{})
	p := New(r, Config{
		Shards: 1, RingSlots: 2, MaxPacket: 256,
		Sink: func(shard int, res cluster.Result, err error) { <-release },
	})
	raw := buildFlowPacket(t, 100, "192.168.0.1", "192.168.0.5", 999)

	// The sink blocks, so the consumer holds its slot: the ring caps the
	// packets in the system at its capacity and further submits must fail.
	accepted := 0
	for p.Submit(raw, t0()) {
		accepted++
		if accepted > 2 {
			break
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d with a 2-slot ring and a blocked worker", accepted)
	}
	// An oversize frame is refused up front, independent of ring state.
	if p.Submit(make([]byte, 300), t0()) {
		t.Fatal("oversize frame accepted")
	}
	st := p.Stats()
	if st.RingFull != 1 || st.Oversize != 1 || st.Accepted != 2 {
		t.Fatalf("backpressure counters: %+v", st)
	}

	close(release)
	p.Drain()
	p.Close()
	st = p.Stats()
	if st.Processed != 2 || st.Depth != 0 {
		t.Fatalf("post-drain stats: %+v", st)
	}
	// The intake refuses after Close without touching counters.
	if p.Submit(raw, t0()) {
		t.Fatal("submit accepted after Close")
	}
}

// TestShardedStatsParityMixedWorkload is the satellite-3 contract: a seeded
// mixed workload (forwards, every front-drop reason, degraded and residency
// fallbacks, meter kills) run through a 4-shard plane must scrape to
// exactly the totals a single-path reference run of the same bytes reports
// — region taxonomy, per-gateway counters, pool counters and heavy-hitter
// top-K alike.
func TestShardedStatsParityMixedWorkload(t *testing.T) {
	ref, rawsRef := buildParityWorld(t)
	refHH := heavyhitter.NewTracker(64)
	ref.EnableHeavyHitters(refHH)
	for _, raw := range rawsRef {
		ref.ProcessPacket(raw, t0()) //nolint:errcheck // drops expected
	}

	shr, raws := buildParityWorld(t)
	if !reflect.DeepEqual(rawsRef, raws) {
		t.Fatal("parity worlds diverged: packet lists differ")
	}
	p := New(shr, Config{Shards: 4, HeavyHitterK: 64})
	submitAll(t, p, raws)
	p.Drain()
	st := p.Stats()
	p.Close()

	if st.Accepted != uint64(len(raws)) || st.Processed != st.Accepted {
		t.Fatalf("intake accounting: %+v for %d frames", st, len(raws))
	}
	if !reflect.DeepEqual(st.Region, ref.Stats()) {
		t.Errorf("merged region stats diverged:\nsharded   %+v\nreference %+v", st.Region, ref.Stats())
	}
	// Coverage guard: the mix must actually exercise every shape, or the
	// parity above proves nothing.
	if st.Region.Forwarded == 0 || st.Region.Degraded == 0 || st.Region.FallbackMiss == 0 {
		t.Fatalf("workload lost coverage: %+v", st.Region)
	}
	for _, code := range cluster.FrontDropReasons {
		reason := code.String()
		if reason == "dpu_error" {
			// Needs a DPU-attached region and a frame the light front
			// parse accepts but the full parser rejects — not reachable
			// from this two-tier workload; the DPU taxonomy is exercised
			// by the xgwdpu unit tests and the three-tier parity test.
			continue
		}
		if st.Region.FrontDrops[reason] == 0 {
			t.Fatalf("workload books no %s front drops", reason)
		}
	}

	// The per-shard views must sum to the merged view.
	var sumF, sumA uint64
	for _, ss := range p.ShardStats() {
		sumF += ss.Region.Forwarded
		sumA += ss.Accepted
	}
	if sumF != st.Region.Forwarded || sumA != st.Accepted {
		t.Fatalf("shard views do not sum to the merge: %d/%d vs %+v", sumF, sumA, st)
	}

	// Below the front end: hardware gateways and the XGW-x86 pool must have
	// seen identical traffic.
	refFwd, refDrop, refReasons := gwTotals(ref)
	shrFwd, shrDrop, shrReasons := gwTotals(shr)
	if refFwd != shrFwd || refDrop != shrDrop || !reflect.DeepEqual(refReasons, shrReasons) {
		t.Errorf("gateway totals diverged: sharded (%d fwd, %d drop, %v) vs reference (%d fwd, %d drop, %v)",
			shrFwd, shrDrop, shrReasons, refFwd, refDrop, refReasons)
	}
	if len(shrReasons) == 0 || shrReasons["meter_exceeded"] == 0 {
		t.Fatalf("workload books no gateway drops: %v", shrReasons)
	}
	for i := range ref.Fallback {
		if !reflect.DeepEqual(ref.Fallback[i].Stats(), shr.Fallback[i].Stats()) {
			t.Errorf("pool node %d diverged:\nsharded   %+v\nreference %+v",
				i, shr.Fallback[i].Stats(), ref.Fallback[i].Stats())
		}
	}

	// Heavy hitters: flows shard wholly and the mix keeps fewer distinct
	// flows than K, so the merged top-K is exact and must match the
	// reference tracker entry for entry.
	merged := p.HeavyHitters()
	if merged.TotalPackets() != refHH.TotalPackets() {
		t.Fatalf("hh totals: merged %d, reference %d", merged.TotalPackets(), refHH.TotalPackets())
	}
	flowKey := func(hf heavyhitter.HotFlow) string {
		return fmt.Sprintf("%d/%d/%x", hf.Cluster, hf.VNI, hf.FlowHash)
	}
	toMap := func(tr *heavyhitter.Tracker) map[string]uint64 {
		m := map[string]uint64{}
		for _, hf := range tr.TopFlows(1000) {
			m[flowKey(hf)] = hf.Packets
		}
		return m
	}
	if got, want := toMap(merged), toMap(refHH); !reflect.DeepEqual(got, want) {
		t.Errorf("hh top flows diverged:\nmerged    %v\nreference %v", got, want)
	}
}

// TestShardedDropParityAcrossStages extends the cross-stage drop-accounting
// reconciliation to the sharded path: every drop tallied across the
// per-shard flight recorders must appear in the owning subsystem's counters
// with the same count and vice versa — front, gateway, fallback and DPU
// stages, with traffic delivered through a 4-shard plane.
func TestShardedDropParityAcrossStages(t *testing.T) {
	r, raws := buildParityWorld(t)
	p := New(r, Config{
		Shards:  4,
		Tracing: &trace.Config{Shards: 4, SlotsPerShard: 1024, SampleShift: 20},
	})
	submitAll(t, p, raws)
	p.Drain()

	// Gateway-stage reasons the region path cannot reach are driven
	// straight at one node; its recorder is shard 0's (wired last), so the
	// merge still owns the tally.
	gw := r.Clusters[0].Nodes[0].GW
	gw.ProcessPacket([]byte{9, 9, 9}, t0()) //nolint:errcheck // gateway parse_error
	if err := gw.InstallRoute(110, pfx("10.0.0.0/8"), tables.Route{Scope: tables.ScopePeer, NextHopVNI: 111}); err != nil {
		t.Fatal(err)
	}
	if err := gw.InstallRoute(111, pfx("10.0.0.0/8"), tables.Route{Scope: tables.ScopePeer, NextHopVNI: 110}); err != nil {
		t.Fatal(err)
	}
	gw.ProcessPacket(buildFlowPacket(t, 110, "192.168.0.1", "10.1.1.1", 999), t0()) //nolint:errcheck // route_loop
	gw.InstallVM(100, addr("192.168.0.77"), addr("100.64.0.77"))
	gw.InstallACL(100, tables.ACLRule{Dst: pfx("192.168.0.77/32"), Proto: netpkt.IPProtocolTCP,
		DstPortLo: 80, DstPortHi: 80, Action: tables.ACLDeny, Priority: 10})
	res, err := gw.ProcessPacket(buildFlowPacket(t, 100, "192.168.0.1", "192.168.0.77", 999), t0())
	if err != nil || res.DropReason != "acl_deny" {
		t.Fatalf("acl packet: res=%+v err=%v", res, err)
	}

	// Fallback-stage extras driven straight at a pool node.
	fb := r.Fallback[0]
	fb.ProcessFallback([]byte{7}, t0()) //nolint:errcheck // fallback parse_error
	fb.Routes.Insert(42, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
	fb.ProcessFallback(buildFlowPacket(t, 42, "192.168.0.1", "192.168.0.9", 999), t0()) //nolint:errcheck // no_vm

	recs := p.Recorders()
	if len(recs) != 4 {
		t.Fatalf("recorders: %d, want 4", len(recs))
	}

	// DPU stage: a three-tier region shares shard 0's recorder. One tenant
	// VM is demoted from hardware but parked on the DPU warm set, so a
	// hardware miss is served by the middle tier; a second key the warm set
	// never learned falls through to the x86 pool; and the tier's one drop
	// reason is driven straight at the pool, as with the gateway extras
	// (ParseFront accepts a frame iff the full parser does, so a wire
	// workload cannot reach the DPU's parse_error).
	cfgE := smallConfig()
	cfgE.DPUDevices = 2
	rE := cluster.NewRegion(cfgE, 1, 1)
	installTenant(t, rE, 0, 100)
	if !rE.Clusters[0].RemoveVM(100, addr("192.168.0.5")) {
		t.Fatal("demote: VM not resident in hardware")
	}
	for _, fbn := range rE.Fallback {
		fbn.Routes.Insert(100, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
		fbn.VMNC.Insert(100, addr("192.168.0.5"), addr("100.64.0.5"))
		fbn.VMNC.Insert(100, addr("192.168.0.9"), addr("100.64.0.9"))
	}
	if err := rE.DPU.InstallRoute(100, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal}); err != nil {
		t.Fatal(err)
	}
	if err := rE.DPU.InstallVM(100, addr("192.168.0.5"), addr("100.64.0.5")); err != nil {
		t.Fatal(err)
	}
	rE.EnableTracing(recs[0])
	resE, errE := rE.ProcessPacket(buildFlowPacket(t, 100, "192.168.0.1", "192.168.0.5", 999), t0())
	if errE != nil || !resE.ViaDPU {
		t.Fatalf("warm key not served by the DPU tier: %+v err=%v", resE, errE)
	}
	resE, errE = rE.ProcessPacket(buildFlowPacket(t, 100, "192.168.0.1", "192.168.0.9", 999), t0())
	if errE != nil || resE.ViaDPU || !resE.ViaFallback {
		t.Fatalf("cold key not carried by the pool: %+v err=%v", resE, errE)
	}
	rE.DPU.ProcessOn(0, []byte{8, 8}, t0()) //nolint:errcheck // dpu parse_error
	stE := rE.Stats()
	if stE.DPUServed != 1 || stE.FallbackMissX86 != 1 ||
		stE.FallbackMiss != stE.DPUServed+stE.FallbackMissX86 {
		t.Fatalf("per-tier miss split broken: %+v", stE)
	}

	// Per-stage reconciliation over the merged tally, both directions.
	dcs := p.DropCounts()
	checks := []struct {
		stage trace.Stage
		want  map[string]uint64
	}{
		{trace.StageFront, sumReasons(p.Stats().Region.FrontDrops)},
		{trace.StageGateway, func() map[string]uint64 {
			_, _, reasons := gwTotals(r)
			return reasons
		}()},
		{trace.StageFallback, func() map[string]uint64 {
			m := map[string]uint64{}
			for _, n := range r.Fallback {
				for k, v := range n.Stats().DropReasons {
					m[k] += v
				}
			}
			return nonzero(m)
		}()},
		{trace.StageDPU, nonzero(rE.DPU.Stats().DropReasons)},
	}
	for _, c := range checks {
		got := mergedReasons(dcs, c.stage)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: merged recorder tally %v, subsystem counters %v", c.stage, got, c.want)
		}
		if len(c.want) == 0 {
			t.Errorf("%v: no drops generated — test mix lost coverage", c.stage)
		}
	}

	// The merged drop events must be present (sampling never gates drops)
	// with resolvable reason names on every shard's recorder.
	evs := p.Events(trace.Filter{DropsOnly: true})
	if len(evs) < 12 {
		t.Fatalf("only %d drop events captured", len(evs))
	}
	for _, ev := range evs {
		if ev.Verdict != trace.VerdictDrop || ev.Code == 0 {
			t.Fatalf("non-drop event in DropsOnly view: %+v", ev)
		}
		if name := ev.Code.String(); strings.HasPrefix(name, "code(") {
			t.Fatalf("unresolvable reason for %+v", ev)
		}
	}
	p.Close()
}

func TestShardPlaneMetricsExposition(t *testing.T) {
	r := cluster.NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	p := New(r, Config{Shards: 2})
	defer p.Close()
	reg := metrics.NewRegistry()
	p.RegisterMetrics(reg)

	raw := buildFlowPacket(t, 100, "192.168.0.1", "192.168.0.5", 999)
	for i := 0; i < 7; i++ {
		submitAll(t, p, [][]byte{raw})
	}
	submitAll(t, p, [][]byte{{1, 2, 3}}) // one front parse_error
	p.Drain()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sailfish_region_forwarded_total 7",
		"sailfish_region_dropped_total 1",
		`sailfish_region_front_drops_total{reason="parse_error"} 1`,
		`sailfish_shardplane_accepted_total{shard="0"}`,
		`sailfish_shardplane_accepted_total{shard="1"}`,
		`sailfish_shardplane_ring_depth{shard="0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestShardPlaneZeroAllocForward pins the sharded hot path — dispatch
// (parse, hash, ring push) plus the worker's run-to-completion lane — at
// zero allocations per packet, with and without per-shard tracing and heavy
// hitters attached.
func TestShardPlaneZeroAllocForward(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	pin := func(label string, p *Plane, raw []byte) {
		t.Helper()
		now := t0()
		for i := 0; i < 32; i++ { // warm scratches, buckets and hh residency
			if !p.Submit(raw, now) {
				t.Fatal("warm-up submit failed")
			}
		}
		p.Drain()
		// Park every worker through its first timed idle sleep so the
		// runtime timer each goroutine lazily allocates exists before the
		// measurement window.
		time.Sleep(5 * time.Millisecond)
		allocs := testing.AllocsPerRun(200, func() {
			if !p.Submit(raw, now) {
				t.Fatal("submit failed")
			}
			p.Drain()
		})
		if allocs != 0 {
			t.Errorf("%s: sharded path allocates %.2f per packet, want 0", label, allocs)
		}
	}

	r1 := cluster.NewRegion(smallConfig(), 1, 0)
	installTenant(t, r1, 0, 100)
	p1 := New(r1, Config{Shards: 2})
	pin("plain", p1, buildFlowPacket(t, 100, "192.168.0.1", "192.168.0.5", 999))
	p1.Close()

	// Traced + tracked, flow sampled out (the production default): pick an inner
	// source whose hash misses the sample gate.
	r2 := cluster.NewRegion(smallConfig(), 1, 0)
	installTenant(t, r2, 0, 100)
	p2 := New(r2, Config{
		Shards:       2,
		Tracing:      &trace.Config{Shards: 2, SlotsPerShard: 256, SampleShift: 8},
		HeavyHitterK: 64,
	})
	defer p2.Close()
	recs := p2.Recorders()
	var raw2 []byte
	for i := 1; i < 64; i++ {
		cand := buildFlowPacket(t, 100, fmt.Sprintf("192.168.0.%d", i), "192.168.0.5", 999)
		var fm netpkt.FrontMeta
		if err := netpkt.ParseFront(cand, &fm); err != nil {
			t.Fatal(err)
		}
		if !recs[0].Sampled(fm.Flow.FastHash()) {
			raw2 = cand
			break
		}
	}
	if raw2 == nil {
		t.Fatal("no sampled-out source found in 63 candidates")
	}
	pin("traced, sampled out", p2, raw2)
}

// TestShardPlaneConcurrentScrape hammers every scrape surface while the
// dispatcher floods the shards with the full mixed workload; run under
// -race this is the concurrency proof for merge-on-scrape. The final
// accounting must still balance exactly.
func TestShardPlaneConcurrentScrape(t *testing.T) {
	r, raws := buildParityWorld(t)
	p := New(r, Config{
		Shards:       4,
		RingSlots:    256,
		Tracing:      &trace.Config{Shards: 2, SlotsPerShard: 256, SampleShift: 0},
		HeavyHitterK: 16,
	})
	reg := metrics.NewRegistry()
	p.RegisterMetrics(reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = p.Stats()
				_ = p.ShardStats()
				_ = p.DropCounts()
				_ = p.Events(trace.Filter{DropsOnly: true})
				_ = p.HeavyHitters()
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	const rounds = 20
	for i := 0; i < rounds; i++ {
		submitAll(t, p, raws)
	}
	p.Drain()
	close(stop)
	wg.Wait()
	st := p.Stats()
	p.Close()

	if st.Accepted != uint64(rounds*len(raws)) || st.Processed != st.Accepted || st.Depth != 0 {
		t.Fatalf("accounting off after concurrent scrape: %+v (%d frames)", st, rounds*len(raws))
	}
	if st.Region.Forwarded == 0 || st.Region.Dropped == 0 || st.Region.FallbackMiss == 0 {
		t.Fatalf("workload lost coverage: %+v", st.Region)
	}
	if hh := p.HeavyHitters(); hh.TotalPackets() == 0 {
		t.Fatal("heavy hitters observed nothing")
	}
}

// BenchmarkShardPlaneForward measures the sharded forward path end to end:
// dispatcher hash+push plus concurrent worker lanes. `make bench` runs the
// same plane through cmd/fastpath-bench with GOMAXPROCS matched to the
// shard count.
func BenchmarkShardPlaneForward(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := cluster.NewRegion(smallConfig(), 1, 0)
			installTenant(b, r, 0, 100)
			p := New(r, Config{Shards: shards, RingSlots: 4096})
			raws := make([][]byte, 64)
			for i := range raws {
				raws[i] = buildFlowPacket(b, 100, fmt.Sprintf("192.168.1.%d", i+1), "192.168.0.5", uint16(1000+i))
			}
			now := t0()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !p.Submit(raws[i&63], now) {
					runtime.Gosched()
				}
			}
			p.Drain()
			b.StopTimer()
			p.Close()
			if st := p.Stats(); st.Region.Forwarded != uint64(b.N) {
				b.Fatalf("forwarded %d of %d", st.Region.Forwarded, b.N)
			}
		})
	}
}

// TestCloseRacesSubmitBatch hammers Close against a concurrently submitting
// dispatcher (run under -race by the race gate): a submit that loses the
// race must be rejected cleanly — never stranded in a ring no worker will
// drain — so after Close returns every accepted frame has been processed
// and later submits reject.
func TestCloseRacesSubmitBatch(t *testing.T) {
	raws := make([][]byte, 8)
	for i := range raws {
		raws[i] = buildFlowPacket(t, 100, fmt.Sprintf("192.168.0.%d", i+1), "192.168.0.5", uint16(1000+i))
	}
	for round := 0; round < 25; round++ {
		r := cluster.NewRegion(smallConfig(), 1, 1)
		installTenant(t, r, 0, 100)
		p := New(r, Config{Shards: 4})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 2000; i++ {
				if p.SubmitBatch(raws, t0()) == 0 && p.closed.Load() {
					return
				}
			}
		}()
		runtime.Gosched() // let the dispatcher get mid-burst
		p.Close()
		<-done
		if p.Submit(raws[0], t0()) {
			t.Fatal("submit accepted after Close")
		}
		st := p.Stats()
		if st.Accepted != st.Processed {
			t.Fatalf("round %d: accepted %d != processed %d — a frame racing Close was stranded",
				round, st.Accepted, st.Processed)
		}
		if st.Depth != 0 {
			t.Fatalf("round %d: ring depth %d after Close", round, st.Depth)
		}
	}
}
