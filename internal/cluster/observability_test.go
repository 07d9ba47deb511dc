package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sailfish/internal/metrics"
	"sailfish/internal/xgwh"
)

// dropMix builds a region whose clusters exercise every front-end drop
// reason, plus the packet set that hits them: forwards on cluster 0, a
// disabled cluster, a cluster with no live nodes, a cluster with no healthy
// ports, an unsteered VNI and a malformed frame.
func dropMix(t *testing.T) (*Region, [][]byte) {
	t.Helper()
	r := NewRegion(smallConfig(), 4, 0)
	installTenant(t, r, 0, 100)
	installTenant(t, r, 1, 101)
	installTenant(t, r, 2, 102)
	installTenant(t, r, 3, 103)
	r.SetClusterEnabled(1, false)
	for i := range r.Clusters[2].Nodes {
		r.Clusters[2].FailNode(i)
	}
	for _, n := range r.Clusters[3].Nodes {
		for p := 0; p < PortsPerNode; p++ {
			n.FailPort(p)
		}
	}
	raws := [][]byte{
		buildPacket(t, 100, "192.168.0.1", "192.168.0.5"),
		buildPacket(t, 100, "192.168.0.2", "192.168.0.5"),
		buildPacket(t, 100, "192.168.0.3", "192.168.0.5"),
		buildPacket(t, 101, "192.168.0.1", "192.168.0.5"), // cluster disabled
		buildPacket(t, 102, "192.168.0.1", "192.168.0.5"), // no live node
		buildPacket(t, 103, "192.168.0.1", "192.168.0.5"), // no healthy port
		buildPacket(t, 999, "192.168.0.1", "192.168.0.5"), // unsteered VNI
		{1, 2, 3}, // malformed
	}
	return r, raws
}

// TestFrontDropAccountingParity runs the same packet mix through the
// single-shot path and ProcessBatch and requires identical RegionStats —
// per-reason front drops included — with every front-end drop reason
// accounted exactly once.
func TestFrontDropAccountingParity(t *testing.T) {
	rShot, raws := dropMix(t)
	for _, raw := range raws {
		rShot.ProcessPacket(raw, t0()) //nolint:errcheck // drops expected
	}
	rBatch, raws2 := dropMix(t)
	rBatch.ProcessBatch(raws2, t0(), nil)

	if !reflect.DeepEqual(rBatch.Stats(), rShot.Stats()) {
		t.Fatalf("ProcessBatch stats %+v diverge from single-shot %+v", rBatch.Stats(), rShot.Stats())
	}
	st := rShot.Stats()
	if st.Forwarded != 3 || st.NoRoute != 1 || st.Dropped != 4 {
		t.Fatalf("forwarded/noroute/dropped = %d/%d/%d, want 3/1/4", st.Forwarded, st.NoRoute, st.Dropped)
	}
	want := map[string]uint64{
		"parse_error":      1,
		"no_route":         1,
		"cluster_disabled": 1,
		"no_live_node":     1,
		"no_healthy_port":  1,
		"fallback_error":   0,
		"dpu_error":        0,
	}
	if !reflect.DeepEqual(st.FrontDrops, want) {
		t.Fatalf("front drop reasons = %v, want %v", st.FrontDrops, want)
	}
}

// TestStatsCoherentUnderLiveTraffic hammers Stats, ResetStats, FallbackRatio
// and the per-gateway snapshots from scraper goroutines while one goroutine
// pushes batches through the region, under -race. Once the scrapers stop, a
// reset followed by one more batch must read back exactly, with the
// forwarded flows spread over the cluster's nodes by ECMP.
func TestStatsCoherentUnderLiveTraffic(t *testing.T) {
	r := NewRegion(smallConfig(), 2, 1)
	installTenant(t, r, 0, 100)
	installTenant(t, r, 1, 101)
	raws := [][]byte{
		buildPacket(t, 101, "192.168.0.2", "192.168.0.5"),
		buildPacket(t, 100, "192.168.0.3", "10.9.9.9"), // route miss → fallback
		buildPacket(t, 999, "192.168.0.1", "192.168.0.5"),
	}
	const flows = 16
	for i := 0; i < flows; i++ {
		raws = append(raws, buildPacket(t, 100, fmt.Sprintf("192.168.1.%d", i+1), "192.168.0.5"))
	}

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
				_ = r.Stats()
				_ = r.FallbackRatio()
				for _, c := range r.Clusters {
					for _, n := range c.Nodes {
						_ = n.GW.Stats()
					}
				}
			}
		}()
	}
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.ResetStats()
			if g, ok := r.Clusters[0].Nodes[0].GW.(*xgwh.Gateway); ok {
				g.ResetStats()
			}
		}
	}()

	var out []BatchResult
	for i := 0; i < 2000; i++ {
		out = r.ProcessBatch(raws, t0(), out[:0])
	}
	close(stop)
	scrapers.Wait()

	r.ResetStats()
	out = r.ProcessBatch(raws, t0(), out[:0])
	st := r.Stats()
	if st.Forwarded != flows+1 || st.Fallback != 1 || st.FallbackMiss != 1 || st.NoRoute != 1 {
		t.Fatalf("post-reset batch stats %+v, want %d forwarded, 1 fallback miss, 1 no_route", st, flows+1)
	}
	if got, want := r.FallbackRatio(), 1.0/(flows+2); got != want {
		t.Fatalf("fallback ratio = %v, want %v", got, want)
	}
	nodes := map[string]bool{}
	for _, br := range out[3:] {
		nodes[br.Result.NodeID] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("%d flows all landed on %v; ECMP spread broken", flows, nodes)
	}
}

// TestRegionRegisterMetricsExposition checks the region's scrape surface:
// the counter families, every front-drop reason label and the water-level
// gauges render into the Prometheus text format.
func TestRegionRegisterMetricsExposition(t *testing.T) {
	r, raws := dropMix(t)
	reg := metrics.NewRegistry()
	r.RegisterMetrics(reg)
	r.ProcessBatch(raws, t0(), nil)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	want := []string{
		"sailfish_region_forwarded_total 3",
		"sailfish_region_noroute_total 1",
		"sailfish_region_dropped_total 4",
		`sailfish_cluster_water_level{cluster="0"}`,
		"sailfish_region_fallback_ratio 0",
	}
	for _, code := range FrontDropReasons {
		want = append(want, `sailfish_region_front_drops_total{reason="`+code.String()+`"}`)
	}
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Fatalf("exposition missing %q in:\n%s", w, body)
		}
	}
}

// TestSteerStageParity: with stage metrics attached, the steer histogram
// counts exactly the steered packets on both entry points — the single-shot
// path is a batch of one, so the two cannot diverge.
func TestSteerStageParity(t *testing.T) {
	for _, batched := range []bool{false, true} {
		r, raws := dropMix(t)
		sh := metrics.NewStageHistograms(metrics.NewRegistry(), "sailfish_test_stage_latency_ns", "test")
		r.EnableStageMetrics(sh)
		if batched {
			r.ProcessBatch(raws, t0(), nil)
		} else {
			for _, raw := range raws {
				r.ProcessPacket(raw, t0()) //nolint:errcheck // drops expected
			}
		}
		// Everything but the malformed frame and the unsteered VNI steers;
		// the clusters that then refuse the packet still made the decision.
		st := r.Stats()
		steered := uint64(len(raws)) - st.FrontDrops["parse_error"] - st.NoRoute
		if got := sh.Steer.Count(); got != steered || steered != 6 {
			t.Fatalf("batched=%v: steer histogram counted %d, want %d steered packets of %d", batched, got, steered, len(raws))
		}
	}
}
