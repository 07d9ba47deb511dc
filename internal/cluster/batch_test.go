package cluster

import (
	"reflect"
	"testing"

	"sailfish/internal/xgwh"
)

// TestRegionForwardZeroAlloc pins the region fast path at zero allocations
// per packet: front parse, steering, cached node/port picks and the gateway
// program all run on preallocated state.
func TestRegionForwardZeroAlloc(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	raw := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")
	now := t0()
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
		t.Fatalf("region forward path allocates %.1f per packet, want 0", allocs)
	}
}

// TestProcessBatchMatchesSingleShot runs the same packets through
// ProcessPacket and ProcessBatch on identically configured regions and
// requires identical results and counters.
func TestProcessBatchMatchesSingleShot(t *testing.T) {
	build := func() (*Region, [][]byte) {
		r := NewRegion(smallConfig(), 2, 1)
		installTenant(t, r, 0, 100)
		installTenant(t, r, 1, 101)
		raws := [][]byte{
			buildPacket(t, 100, "192.168.0.1", "192.168.0.5"),
			buildPacket(t, 101, "192.168.0.2", "192.168.0.5"),
			buildPacket(t, 100, "192.168.0.3", "10.9.9.9"),    // route miss → fallback
			buildPacket(t, 999, "192.168.0.1", "192.168.0.5"), // unsteered VNI
			{1, 2, 3}, // malformed
		}
		return r, raws
	}

	rSingle, raws := build()
	var want []BatchResult
	for _, raw := range raws {
		res, err := rSingle.ProcessPacket(raw, t0())
		want = append(want, BatchResult{Result: res, Err: err})
	}

	rBatch, raws2 := build()
	got := rBatch.ProcessBatch(raws2, t0(), nil)

	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Err != want[i].Err {
			t.Fatalf("packet %d: err %v, want %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Result.NodeID != want[i].Result.NodeID ||
			got[i].Result.ClusterID != want[i].Result.ClusterID ||
			got[i].Result.EgressPort != want[i].Result.EgressPort ||
			got[i].Result.GW.Action != want[i].Result.GW.Action ||
			got[i].Result.ViaFallback != want[i].Result.ViaFallback {
			t.Fatalf("packet %d: result %+v, want %+v", i, got[i].Result, want[i].Result)
		}
	}
	if !reflect.DeepEqual(rBatch.Stats(), rSingle.Stats()) {
		t.Fatalf("stats diverge: batch %+v, single %+v", rBatch.Stats(), rSingle.Stats())
	}
}

// TestProcessBatchReusesResultSlice checks the out[:0] recycling contract:
// once the slice has capacity, batches stop allocating.
func TestProcessBatchReusesResultSlice(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	raws := [][]byte{
		buildPacket(t, 100, "192.168.0.1", "192.168.0.5"),
		buildPacket(t, 100, "192.168.0.2", "192.168.0.5"),
		buildPacket(t, 100, "192.168.0.3", "192.168.0.5"),
	}
	now := t0()
	out := r.ProcessBatch(raws, now, nil)
	allocs := testing.AllocsPerRun(200, func() {
		out = r.ProcessBatch(raws, now, out[:0])
		for i := range out {
			if out[i].Err != nil {
				t.Fatal(out[i].Err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("recycled ProcessBatch allocates %.1f per batch, want 0", allocs)
	}
}

// TestNodePortCacheConsistency checks that the cached egress-port pick
// matches the definition it replaced: the k-th healthy port in ascending
// index order.
func TestNodePortCacheConsistency(t *testing.T) {
	var n Node
	for p := range n.PortHealthy {
		n.PortHealthy[p] = true
	}
	n.rebuildPortCache()
	pickRef := func(hash uint64) (int, bool) {
		liveCount := 0
		for _, ok := range n.PortHealthy {
			if ok {
				liveCount++
			}
		}
		if liveCount == 0 {
			return 0, false
		}
		k := int(hash % uint64(liveCount))
		for p, ok := range n.PortHealthy {
			if !ok {
				continue
			}
			if k == 0 {
				return p, true
			}
			k--
		}
		return 0, false
	}
	check := func() {
		t.Helper()
		for hash := uint64(0); hash < 200; hash++ {
			wantP, wantOK := pickRef(hash)
			gotP, gotOK := n.PickPort(hash)
			if gotP != wantP || gotOK != wantOK {
				t.Fatalf("hash %d: PickPort = (%d,%v), want (%d,%v)", hash, gotP, gotOK, wantP, wantOK)
			}
		}
	}
	check()
	for _, p := range []int{0, 5, 31, 7} {
		n.FailPort(p)
		check()
	}
	n.RestorePort(5)
	check()
	for p := 0; p < PortsPerNode; p++ {
		n.FailPort(p)
	}
	check() // all ports down: PickPort must report false
}
