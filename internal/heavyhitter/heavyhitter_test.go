package heavyhitter

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"testing"

	"sailfish/internal/netpkt"
)

func ip(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

func TestSpaceSavingExactWhenUnderK(t *testing.T) {
	s := NewSpaceSaving[string](16)
	counts := map[string]uint64{"a": 50, "b": 30, "c": 20, "d": 1}
	for k, n := range counts {
		for i := uint64(0); i < n; i++ {
			s.Observe(k, 1)
		}
	}
	top := s.Top()
	if len(top) != 4 {
		t.Fatalf("tracked %d keys, want 4", len(top))
	}
	for _, c := range top {
		if c.Err != 0 || c.Count != counts[c.Key] {
			t.Fatalf("under-K sketch must be exact: %+v want %d", c, counts[c.Key])
		}
	}
	if top[0].Key != "a" || top[1].Key != "b" {
		t.Fatalf("order: %+v", top)
	}
}

// The SpaceSaving invariants under eviction pressure: for every tracked key,
// estimate >= true count and estimate - err <= true count.
func TestSpaceSavingErrorBounds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	z := rand.NewZipf(r, 1.5, 1, 9999)
	s := NewSpaceSaving[uint64](64)
	exact := make(map[uint64]uint64)
	for i := 0; i < 200000; i++ {
		k := z.Uint64()
		exact[k]++
		s.Observe(k, 1)
	}
	if s.Len() != 64 {
		t.Fatalf("sketch holds %d, want k=64", s.Len())
	}
	for _, c := range s.Top() {
		truth := exact[c.Key]
		if c.Count < truth {
			t.Fatalf("key %d: estimate %d < true %d", c.Key, c.Count, truth)
		}
		if c.Count-c.Err > truth {
			t.Fatalf("key %d: lower bound %d > true %d", c.Key, c.Count-c.Err, truth)
		}
	}
}

// The ISSUE 4 acceptance check: on a Zipf-skewed workload HotEntries' top-K
// must match the exact offline top-K, and the reported hot set must cover
// >= 99.9% of traffic — the paper's 95/5 rule measured end to end.
func TestHotEntriesMatchOfflineTopK(t *testing.T) {
	const (
		streamLen = 500000
		keySpace  = 4000
		k         = 1024
	)
	r := rand.New(rand.NewSource(42))
	z := rand.NewZipf(r, 2.0, 1, keySpace-1)
	tr := NewTracker(k)
	exact := make(map[RouteKey]uint64)
	for i := 0; i < streamLen; i++ {
		key := int(z.Uint64())
		vni := netpkt.VNI(100 + key%8)
		dip := ip(key)
		flowHash := uint64(key)*2654435761 + 1 // one flow per entry is enough here
		tr.Observe(key%4, vni, flowHash, dip, 100)
		exact[RouteKey{VNI: vni, DIP: dip}]++
	}
	if got := tr.TotalPackets(); got != streamLen {
		t.Fatalf("TotalPackets = %d", got)
	}

	res := tr.HotEntries(0.999)
	if res.Achieved < 0.999 {
		t.Fatalf("hot set covers %.5f of traffic, want >= 0.999", res.Achieved)
	}

	// The true top 20 (by exact offline count) must all be reported, with
	// estimates inside the sketch's error bounds.
	type kc struct {
		key RouteKey
		n   uint64
	}
	var off []kc
	for key, n := range exact {
		off = append(off, kc{key, n})
	}
	sort.Slice(off, func(i, j int) bool { return off[i].n > off[j].n })
	reported := make(map[RouteKey]HotEntry, len(res.Entries))
	for _, e := range res.Entries {
		reported[RouteKey{VNI: e.VNI, DIP: e.DIP}] = e
	}
	for i := 0; i < 20 && i < len(off); i++ {
		e, ok := reported[off[i].key]
		if !ok {
			t.Fatalf("true top-%d entry %v (count %d) missing from HotEntries", i+1, off[i].key, off[i].n)
		}
		if e.Packets < off[i].n || e.Packets-e.MaxErr > off[i].n {
			t.Fatalf("entry %v: estimate %d (err %d) outside bounds for true %d",
				off[i].key, e.Packets, e.MaxErr, off[i].n)
		}
	}

	// Verify the coverage claim against exact counts, not just the sketch's
	// own lower bound.
	var covered uint64
	for _, e := range res.Entries {
		covered += exact[RouteKey{VNI: e.VNI, DIP: e.DIP}]
	}
	if frac := float64(covered) / streamLen; frac < 0.999 {
		t.Fatalf("exact coverage of reported hot set = %.5f, want >= 0.999", frac)
	}
}

func TestHotEntriesCutsAtTarget(t *testing.T) {
	tr := NewTracker(16)
	// 90 / 9 / 1 split across three entries.
	for i := 0; i < 90; i++ {
		tr.Observe(0, 1, 11, ip(1), 100)
	}
	for i := 0; i < 9; i++ {
		tr.Observe(0, 1, 22, ip(2), 100)
	}
	tr.Observe(0, 2, 33, ip(3), 100)
	res := tr.HotEntries(0.95)
	if len(res.Entries) != 2 {
		t.Fatalf("0.95 target should stop after two entries, got %d (%+v)", len(res.Entries), res)
	}
	if res.Entries[0].DIP != ip(1) || res.Entries[1].DIP != ip(2) {
		t.Fatalf("wrong ranking: %+v", res.Entries)
	}
	if res.Achieved < 0.99 || res.Achieved > 1 {
		t.Fatalf("achieved = %f", res.Achieved)
	}
	if got := tr.HotEntries(0).Entries; len(got) != 0 {
		t.Fatalf("target 0 means no residency — want empty set, got %d entries", len(got))
	}
}

// Degenerate coverage targets must not be interpreted as "everything is
// hot": <= 0 and NaN mean an empty residency set, > 1 clamps to the full
// ranking with Target reported as 1.
func TestHotEntriesTargetClamping(t *testing.T) {
	tr := NewTracker(16)
	for i := 0; i < 50; i++ {
		tr.Observe(0, 1, 11, ip(1), 100)
	}
	tr.Observe(0, 1, 22, ip(2), 100)
	if res := tr.HotEntries(-0.5); len(res.Entries) != 0 || res.Target != 0 {
		t.Fatalf("negative target: %+v", res)
	}
	if res := tr.HotEntries(math.NaN()); len(res.Entries) != 0 || res.Target != 0 {
		t.Fatalf("NaN target: %+v", res)
	}
	res := tr.HotEntries(7)
	if res.Target != 1 {
		t.Fatalf("target > 1 must clamp to 1, got %f", res.Target)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("clamped target 1 should return the full ranking, got %d", len(res.Entries))
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker(16)
	for i := 0; i < 10; i++ {
		tr.Observe(0, 1, 11, ip(1), 100)
	}
	if tr.TotalPackets() != 10 {
		t.Fatalf("TotalPackets = %d", tr.TotalPackets())
	}
	tr.Reset()
	if tr.TotalPackets() != 0 || len(tr.HotEntries(1).Entries) != 0 {
		t.Fatal("Reset did not clear the window")
	}
	// The tracker must keep working after a reset.
	tr.Observe(0, 2, 22, ip(2), 100)
	if res := tr.HotEntries(1); len(res.Entries) != 1 || res.Entries[0].VNI != 2 {
		t.Fatalf("post-reset observations lost: %+v", res)
	}
	var nilTr *Tracker
	nilTr.Reset() // must not panic
}

func TestTopFlowsAndSkew(t *testing.T) {
	tr := NewTracker(16)
	for i := 0; i < 70; i++ {
		tr.Observe(0, 100, 0xAAAA, ip(1), 150)
	}
	for i := 0; i < 30; i++ {
		tr.Observe(1, 200, 0xBBBB, ip(2), 50)
	}
	flows := tr.TopFlows(10)
	if len(flows) != 2 || flows[0].FlowHash != 0xAAAA || flows[0].Cluster != 0 {
		t.Fatalf("TopFlows: %+v", flows)
	}
	if flows[0].Packets != 70 || flows[0].Share != 0.7 {
		t.Fatalf("share math: %+v", flows[0])
	}
	if one := tr.TopFlows(1); len(one) != 1 {
		t.Fatalf("limit: %+v", one)
	}
	skew := tr.VNISkewSummary()
	if len(skew) != 2 || skew[0].VNI != 100 {
		t.Fatalf("skew: %+v", skew)
	}
	if skew[0].Packets != 70 || skew[0].Bytes != 70*150 || skew[0].Share != 0.7 {
		t.Fatalf("skew totals: %+v", skew[0])
	}
	if skew[0].HotShare != 1 {
		t.Fatalf("all of VNI 100 sits on a tracked entry: %+v", skew[0])
	}
	var nilTr *Tracker
	nilTr.Observe(0, 1, 2, ip(1), 10) // must not panic
	if nilTr.TopFlows(5) != nil || nilTr.VNISkewSummary() != nil || nilTr.TotalPackets() != 0 {
		t.Fatal("nil tracker must be inert")
	}
	if nilRes := nilTr.HotEntries(0.95); len(nilRes.Entries) != 0 {
		t.Fatal("nil tracker must report nothing")
	}
}

// Steady-state Observe — hot keys resident — must not allocate, since the
// daemon feeds it from the fast path.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	tr := NewTracker(8)
	keys := [4]netip.Addr{ip(1), ip(2), ip(3), ip(4)}
	for i := 0; i < 64; i++ {
		tr.Observe(0, 100, uint64(i%4+1), keys[i%4], 100)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe(0, 100, uint64(i%4+1), keys[i%4], 100)
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state Observe allocates %v/op, want 0", allocs)
	}
}

// Concurrent feeders and readers; meaningful under -race.
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.HotEntries(0.95)
				tr.TopFlows(8)
				tr.VNISkewSummary()
			}
		}()
	}
	var feeders sync.WaitGroup
	for w := 0; w < 4; w++ {
		feeders.Add(1)
		go func(w int) {
			defer feeders.Done()
			r := rand.New(rand.NewSource(int64(w)))
			z := rand.NewZipf(r, 1.8, 1, 499)
			for i := 0; i < 20000; i++ {
				k := int(z.Uint64())
				tr.Observe(w%2, netpkt.VNI(100+k%4), uint64(k), ip(k), 100)
			}
		}(w)
	}
	feeders.Wait()
	close(stop)
	wg.Wait()
	if got := tr.TotalPackets(); got != 4*20000 {
		t.Fatalf("TotalPackets = %d, want %d", got, 4*20000)
	}
	if res := tr.HotEntries(0.95); res.Achieved < 0.5 || len(res.Entries) == 0 {
		t.Fatalf("implausible residency after load: %+v", res.Achieved)
	}
	_ = fmt.Sprintf("%v", tr.VNISkewSummary()[0])
}

// BenchmarkTrackerObserve is the per-packet feed the steering path pays
// when heavy-hitter telemetry is on, in the two regimes that bound it:
// ladder-zipf is the residency ladder's own traffic (Zipf(1.0) over 16384
// route keys against k = 8190: mostly increments of tracked keys), and
// evict-uniform is 65536 uniform keys against k = 1024, where nearly every
// observation evicts.
func BenchmarkTrackerObserve(b *testing.B) {
	for _, bc := range []struct {
		name    string
		k, keys int
		zipf    bool
	}{
		{"ladder-zipf-k8190", 8190, 16384, true},
		{"evict-uniform-k1024", 1024, 65536, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			next := func() int { return r.Intn(bc.keys) }
			if bc.zipf {
				next = zipf1(r, bc.keys)
			}
			obs := make([]Observation, 1<<16)
			for i := range obs {
				k := next()
				obs[i] = Observation{VNI: netpkt.VNI(100 + k%16), FlowHash: uint64(k) * 0x9e3779b97f4a7c15, DIP: ip(k), WireLen: 100}
			}
			tr := NewTracker(bc.k)
			tr.ObserveBatch(obs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := &obs[i&(len(obs)-1)]
				tr.Observe(o.Cluster, o.VNI, o.FlowHash, o.DIP, o.WireLen)
			}
		})
	}
}

// zipf1 draws ranks in [0, n) with P(rank r) proportional to 1/(r+1) —
// exponent exactly 1, which rand.Zipf cannot produce — by inverting the
// cumulative weights.
func zipf1(r *rand.Rand, n int) func() int {
	cum := make([]float64, n)
	var sum float64
	for i := range cum {
		sum += 1 / float64(i+1)
		cum[i] = sum
	}
	return func() int { return sort.SearchFloat64s(cum, r.Float64()*sum) }
}
