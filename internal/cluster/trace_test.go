package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sailfish/internal/heavyhitter"
	"sailfish/internal/netpkt"
	"sailfish/internal/tables"
	"sailfish/internal/trace"
	"sailfish/internal/xgw86"
	"sailfish/internal/xgwdpu"
	"sailfish/internal/xgwh"
)

// recorderReasons materializes the flight recorder's cumulative drop tally
// for one stage as a reason→count map.
func recorderReasons(rec *trace.Recorder, st trace.Stage) map[string]uint64 {
	m := map[string]uint64{}
	for _, dc := range rec.DropCounts() {
		if dc.Stage == st {
			m[dc.Reason] = dc.Count
		}
	}
	return m
}

// nonzero filters a reason map down to its nonzero entries, the common
// denominator between subsystems that materialize all reasons (region
// FrontDrops) and those that materialize only observed ones.
func nonzero(m map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range m {
		if v > 0 {
			out[k] = v
		}
	}
	return out
}

// sumReasons merges per-node reason maps.
func sumReasons(ms ...map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return nonzero(out)
}

// TestDropReasonSpace pins the one reason space every stage books into:
// each tier's subset by name and code order (the metrics label order and
// the Stats key set), unique non-empty names, no code that no tier emits,
// and a visible name for a code outside the space.
func TestDropReasonSpace(t *testing.T) {
	tiers := []struct {
		tier    string
		reasons []trace.Reason
		want    []string
	}{
		{"front", FrontDropReasons, []string{"parse_error", "no_route", "cluster_disabled",
			"no_live_node", "no_healthy_port", "fallback_error", "dpu_error"}},
		{"gateway", xgwh.DropReasons, []string{"parse_error", "meter_exceeded", "route_loop",
			"acl_deny", "fallback_rate_limit", "no_nc"}},
		{"fallback", xgw86.DropReasons, []string{"parse_error", "no_route", "no_vm",
			"not_ipv4", "snat_exhausted", "no_session"}},
		{"dpu", xgwdpu.DropReasons, []string{"parse_error"}},
	}
	emitted := map[trace.Reason]bool{}
	for _, tc := range tiers {
		var got []string
		for i, code := range tc.reasons {
			if i > 0 && code <= tc.reasons[i-1] {
				t.Errorf("%s: %v out of code order", tc.tier, code)
			}
			got = append(got, code.String())
			emitted[code] = true
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s reasons = %v, want %v", tc.tier, got, tc.want)
		}
	}
	seen := map[string]bool{}
	for code := trace.Reason(1); code < trace.NumReasons; code++ {
		name := code.String()
		if name == "" || strings.HasPrefix(name, "code(") || seen[name] {
			t.Errorf("code %d: name %q empty, unnamed or duplicated", code, name)
		}
		seen[name] = true
		if !emitted[code] {
			t.Errorf("%v: no tier emits it", code)
		}
	}
	if got := trace.Reason(trace.NumReasons).String(); got != fmt.Sprintf("code(%d)", trace.NumReasons) {
		t.Errorf("code outside the space = %q", got)
	}
}

// TestDropParityAcrossStages is the drop-accounting reconciliation the
// tentpole promises: every drop the flight recorder tallied must appear in
// the owning subsystem's interned per-reason counters with the same count,
// and vice versa — no reason may exist in one system but not the other. The
// sample shift is set so high that essentially no flow is sampled, proving
// drop capture is unconditional.
func TestDropParityAcrossStages(t *testing.T) {
	rec := trace.New(trace.Config{Shards: 4, SlotsPerShard: 1024, SampleShift: 20})

	// Region 1 exercises the front, gateway and fallback stages through the
	// single-shot path.
	r := NewRegion(smallConfig(), 4, 1)
	for id, vni := range []netpkt.VNI{100, 101, 102, 103} {
		installTenant(t, r, id, vni)
	}
	// A fifth, degraded cluster steers its residual traffic at the XGW-x86
	// pool; with an empty fallback table that books a fallback-stage
	// no_route plus a front-end fallback_error for the same packet death.
	r.AddCluster()
	installTenant(t, r, 4, 104)
	r.EnableTracing(rec)
	r.SetDegraded(4, true)
	r.SetClusterEnabled(1, false)
	for i := range r.Clusters[2].Nodes {
		r.Clusters[2].FailNode(i)
	}
	for _, n := range r.Clusters[3].Nodes {
		for p := 0; p < PortsPerNode; p++ {
			n.FailPort(p)
		}
	}

	for _, raw := range [][]byte{
		buildPacket(t, 100, "192.168.0.1", "192.168.0.5"), // forward
		{1, 2, 3}, // front parse_error
		buildPacket(t, 999, "192.168.0.1", "192.168.0.5"), // front no_route
		buildPacket(t, 101, "192.168.0.1", "192.168.0.5"), // cluster_disabled
		buildPacket(t, 102, "192.168.0.1", "192.168.0.5"), // no_live_node
		buildPacket(t, 103, "192.168.0.1", "192.168.0.5"), // no_healthy_port
		buildPacket(t, 104, "192.168.0.1", "192.168.0.5"), // degraded → fallback_error
	} {
		r.ProcessPacket(raw, t0()) //nolint:errcheck // drops expected
	}

	// The §5 residency path: tenant 105's VM entry is demoted from hardware
	// while the XGW-x86 pool keeps the table of record. A demoted key's
	// packet books a fallback-stage miss and completes on the pool; a key
	// the pool never learned dies there, with the death visible in both the
	// pool's no_vm counter and the front end's fallback_error — the same
	// dual-booking the degraded cluster above established.
	installTenant(t, r, 0, 105)
	if !r.Clusters[0].RemoveVM(105, addr("192.168.0.5")) {
		t.Fatal("demote: VM not resident in hardware")
	}
	pool := r.Fallback[0]
	pool.Routes.Insert(105, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
	pool.VMNC.Insert(105, addr("192.168.0.5"), addr("100.64.0.5"))
	pre := r.Stats()
	resHot, err := r.ProcessPacket(buildPacket(t, 105, "192.168.0.1", "192.168.0.5"), t0())
	if err != nil || !resHot.ViaFallback || !resHot.GW.FallbackMiss {
		t.Fatalf("demoted entry: res=%+v err=%v", resHot, err)
	}
	if resHot.FallbackOut.NC != addr("100.64.0.5") {
		t.Fatalf("demoted entry served by wrong NC %v", resHot.FallbackOut.NC)
	}
	resMiss, err := r.ProcessPacket(buildPacket(t, 105, "192.168.0.1", "192.168.0.99"), t0())
	if err != nil || resMiss.ViaFallback || !resMiss.GW.FallbackMiss {
		t.Fatalf("pool-missing entry: res=%+v err=%v", resMiss, err)
	}
	st := r.Stats()
	if st.Fallback != pre.Fallback+2 || st.FallbackMiss != pre.FallbackMiss+2 {
		t.Fatalf("residency misses not booked: pre=%+v post=%+v", pre, st)
	}
	if st.Dropped != pre.Dropped+1 {
		t.Fatalf("pool-missing entry must drop exactly once: pre=%+v post=%+v", pre, st)
	}

	// Gateway-stage reasons the region path cannot reach (the front end
	// kills malformed frames first) are driven straight at one node.
	gw := r.Clusters[0].Nodes[0].GW
	gw.ProcessPacket([]byte{9, 9, 9}, t0()) //nolint:errcheck // gateway parse_error
	if err := gw.InstallRoute(110, pfx("10.0.0.0/8"), tables.Route{Scope: tables.ScopePeer, NextHopVNI: 111}); err != nil {
		t.Fatal(err)
	}
	if err := gw.InstallRoute(111, pfx("10.0.0.0/8"), tables.Route{Scope: tables.ScopePeer, NextHopVNI: 110}); err != nil {
		t.Fatal(err)
	}
	gw.ProcessPacket(buildPacket(t, 110, "192.168.0.1", "10.1.1.1"), t0()) //nolint:errcheck // route_loop
	gw.InstallVM(100, addr("192.168.0.77"), addr("100.64.0.77"))
	gw.InstallACL(100, tables.ACLRule{Dst: pfx("192.168.0.77/32"), Proto: netpkt.IPProtocolTCP,
		DstPortLo: 80, DstPortHi: 80, Action: tables.ACLDeny, Priority: 10})
	res, err := gw.ProcessPacket(buildPacket(t, 100, "192.168.0.1", "192.168.0.77"), t0())
	if err != nil || res.DropReason != "acl_deny" {
		t.Fatalf("acl packet: res=%+v err=%v", res, err)
	}

	// Fallback-stage extras driven straight at the pool node.
	fb := r.Fallback[0]
	fb.ProcessFallback([]byte{7}, t0()) //nolint:errcheck // fallback parse_error
	fb.Routes.Insert(42, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
	fb.ProcessFallback(buildPacket(t, 42, "192.168.0.1", "192.168.0.9"), t0()) //nolint:errcheck // no_vm

	// Per-stage reconciliation, both directions (DeepEqual is symmetric).
	var gwReasons []map[string]uint64
	for _, c := range r.Clusters {
		for _, n := range c.AllNodes() {
			gwReasons = append(gwReasons, n.GW.Stats().DropReasons)
		}
	}
	checks := []struct {
		stage trace.Stage
		want  map[string]uint64
	}{
		{trace.StageFront, sumReasons(r.Stats().FrontDrops)},
		{trace.StageGateway, sumReasons(gwReasons...)},
		{trace.StageFallback, sumReasons(fb.Stats().DropReasons)},
	}
	for _, c := range checks {
		got := recorderReasons(rec, c.stage)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: recorder tally %v, subsystem counters %v", c.stage, got, c.want)
		}
		if len(c.want) == 0 {
			t.Errorf("%v: no drops generated — test mix lost coverage", c.stage)
		}
	}

	// The drop events themselves must sit in the ring despite the flows
	// being sampled out, each with a resolvable reason name.
	evs := rec.Events(trace.Filter{DropsOnly: true})
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
}

// TestForwardPathZeroAllocTraced pins the region forward path at zero
// allocations per packet in three configurations: tracing disabled, tracing
// plus heavy hitters enabled with the flow sampled out, and tracing enabled
// with the flow sampled in (shift 0). It also proves drops still hit the
// recorder when the forward flow is sampled out.
func TestForwardPathZeroAllocTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	pin := func(label string, r *Region, raw []byte) {
		t.Helper()
		now := t0()
		for i := 0; i < 10; i++ { // warm gateway scratch + heavy-hitter residency
			if _, err := r.ProcessPacket(raw, now); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			res, err := r.ProcessPacket(raw, now)
			if err != nil {
				t.Fatal(err)
			}
			if res.GW.Action != xgwh.ActionForward {
				t.Fatalf("action = %v", res.GW.Action)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: forward path allocates %.1f per packet, want 0", label, allocs)
		}
	}
	build := func() (*Region, []byte) {
		r := NewRegion(smallConfig(), 1, 0)
		installTenant(t, r, 0, 100)
		return r, buildPacket(t, 100, "192.168.0.1", "192.168.0.5")
	}

	r1, raw1 := build()
	pin("tracing disabled", r1, raw1)

	// Sampled out: pick an inner source whose flow hash misses the 1-in-256
	// sample gate.
	r2, _ := build()
	rec := trace.New(trace.Config{Shards: 2, SlotsPerShard: 256, SampleShift: 8})
	r2.EnableTracing(rec)
	r2.EnableHeavyHitters(heavyhitter.NewTracker(64))
	var raw2 []byte
	var fh uint64
	for i := 1; i < 64; i++ {
		cand := buildPacket(t, 100, fmt.Sprintf("192.168.0.%d", i), "192.168.0.5")
		var fm netpkt.FrontMeta
		if err := netpkt.ParseFront(cand, &fm); err != nil {
			t.Fatal(err)
		}
		if h := fm.Flow.FastHash(); !rec.Sampled(h) {
			raw2, fh = cand, h
			break
		}
	}
	if raw2 == nil {
		t.Fatal("no sampled-out source found in 63 candidates")
	}
	pin("tracing enabled, flow sampled out", r2, raw2)
	if evs := rec.Events(trace.Filter{FlowHash: fh, MatchFlow: true}); len(evs) != 0 {
		t.Fatalf("sampled-out flow left %d events in the ring", len(evs))
	}
	// Drops bypass the sample gate entirely.
	r2.ProcessPacket([]byte{1, 2, 3}, t0())                                   //nolint:errcheck
	r2.ProcessPacket(buildPacket(t, 999, "192.168.0.1", "192.168.0.5"), t0()) //nolint:errcheck
	if evs := rec.Events(trace.Filter{DropsOnly: true}); len(evs) != 2 {
		t.Fatalf("captured %d drop events with sampling active, want 2", len(evs))
	}

	// Sampled in: shift 0 samples every flow; the seqlock publish itself
	// must not allocate either.
	r3, raw3 := build()
	r3.EnableTracing(trace.New(trace.Config{Shards: 2, SlotsPerShard: 256, SampleShift: 0}))
	r3.EnableHeavyHitters(heavyhitter.NewTracker(64))
	pin("tracing enabled, flow sampled in", r3, raw3)
}

// TestTraceCoherentUnderLiveTraffic hammers the flight recorder and the
// heavy-hitter tracker from scraper goroutines while one goroutine pushes
// batches through the region — the -race leg of the Makefile is the real
// assertion here; the final tallies must still be exact.
func TestTraceCoherentUnderLiveTraffic(t *testing.T) {
	rec := trace.New(trace.Config{Shards: 4, SlotsPerShard: 256, SampleShift: 2})
	hh := heavyhitter.NewTracker(128)
	r := NewRegion(smallConfig(), 2, 1)
	installTenant(t, r, 0, 100)
	installTenant(t, r, 1, 101)
	r.EnableTracing(rec)
	r.EnableHeavyHitters(hh)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 3; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = rec.Snapshot()
				_ = rec.Events(trace.Filter{DropsOnly: true})
				_ = rec.DropCounts()
				_ = hh.TopFlows(10)
				_ = hh.HotEntries(0.95)
				_ = hh.VNISkewSummary()
			}
		}()
	}

	// Every 10th packet has no steering: a front no_route drop, always
	// recorded and never observed by the tracker.
	const batches, perBatch = 200, 20
	var raws [][]byte
	for i := 0; i < perBatch; i++ {
		vni := netpkt.VNI(100 + i%2)
		if i%10 == 9 {
			vni = 999
		}
		raws = append(raws, buildPacket(t, vni, fmt.Sprintf("192.168.%d.%d", i%2, i+1), "192.168.0.5"))
	}
	var out []BatchResult
	for b := 0; b < batches; b++ {
		out = r.ProcessBatch(raws, t0(), out[:0])
	}
	close(stop)
	scrapers.Wait()

	const unrouted = batches * perBatch / 10
	if got := hh.TotalPackets(); got != batches*perBatch-unrouted {
		t.Fatalf("heavy hitters observed %d packets, want %d routed", got, batches*perBatch-unrouted)
	}
	if got := recorderReasons(rec, trace.StageFront)["no_route"]; got != unrouted {
		t.Fatalf("recorder tallied %d front no_route drops, want %d", got, unrouted)
	}
}
