package heavyhitter

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"sailfish/internal/netpkt"
)

// checkSketch walks a sketch's internals: the bucket ring is strictly
// ascending and doubly linked, every slot hangs in exactly the bucket it
// names, and the index finds every tracked key and holds nothing else.
func checkSketch[K sketchKey](t *testing.T, s *SpaceSaving[K]) {
	t.Helper()
	seen := make([]bool, len(s.slots))
	var last uint64
	for p, b := uint32(0), s.bkts[0].next; b != 0; p, b = b, s.bkts[b].next {
		bk := s.bkts[b]
		if bk.prev != p || bk.count <= last || bk.first == nilIdx {
			t.Fatalf("bucket %d: prev %d (want %d), count %d after %d, first %d", b, bk.prev, p, bk.count, last, bk.first)
		}
		last = bk.count
		for q, i := nilIdx, bk.first; i != nilIdx; q, i = i, s.slots[i].next {
			if seen[i] || s.slots[i].bucket != b || s.slots[i].prev != q {
				t.Fatalf("slot %d in bucket %d: seen %v, names bucket %d, prev %d (want %d)",
					i, b, seen[i], s.slots[i].bucket, s.slots[i].prev, q)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("slot %d hangs in no bucket", i)
		}
		if j, found := s.find(s.slots[i].key, s.slots[i].hash); !found || j != uint32(i) {
			t.Fatalf("index finds slot %d as (%d, %v)", i, j, found)
		}
	}
	indexed := 0
	for _, e := range s.table {
		if e != 0 {
			indexed++
		}
	}
	if indexed != len(s.slots) {
		t.Fatalf("index holds %d entries for %d slots", indexed, len(s.slots))
	}
}

// checkBounds asserts the three SpaceSaving invariants against exact
// counts: estimate >= truth, estimate - err <= truth, and the estimates sum
// to the stream length.
func checkBounds[K sketchKey](t *testing.T, s *SpaceSaving[K], exact map[K]uint64, streamLen uint64) {
	t.Helper()
	var sum uint64
	for _, c := range s.Top() {
		sum += c.Count
		if truth := exact[c.Key]; c.Count < truth || c.Count-c.Err > truth {
			t.Fatalf("key %v: estimate %d err %d outside bounds for true %d", c.Key, c.Count, c.Err, truth)
		}
	}
	if sum != streamLen {
		t.Fatalf("estimates sum to %d over a stream of %d", sum, streamLen)
	}
}

// streams are the key sequences the differential tests draw from: skewed,
// flat, and the degenerate ends (every key new, one key only, one counter).
var streams = []struct {
	name string
	k, n int
	next func(r *rand.Rand) func(i int) int
}{
	{"zipf", 64, 40000, func(r *rand.Rand) func(int) int {
		z := rand.NewZipf(r, 1.2, 1, 1999)
		return func(int) int { return int(z.Uint64()) }
	}},
	{"uniform", 64, 40000, func(r *rand.Rand) func(int) int { return func(int) int { return r.Intn(5000) } }},
	{"all-distinct", 16, 4000, func(*rand.Rand) func(int) int { return func(i int) int { return i } }},
	{"single-key", 8, 4000, func(*rand.Rand) func(int) int { return func(int) int { return 7 } }},
	{"k=1", 1, 4000, func(r *rand.Rand) func(int) int { return func(int) int { return r.Intn(10) } }},
}

// The sketch against a naive exact counter, with weighted observations
// (n > 1 walks the bucket ring) and a reset halfway.
func TestSpaceSavingDifferential(t *testing.T) {
	for _, sc := range streams {
		t.Run(sc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			next := sc.next(r)
			s := NewSpaceSaving[uint64](sc.k)
			exact := make(map[uint64]uint64)
			var total uint64
			for i := 0; i < sc.n; i++ {
				if i == sc.n/2 {
					s.reset()
					clear(exact)
					total = 0
				}
				key, n := uint64(next(i)), uint64(1)
				if r.Intn(8) == 0 {
					n += uint64(r.Intn(40))
				}
				s.Observe(key, n)
				exact[key] += n
				total += n
				if i%997 == 0 || i == sc.n-1 {
					checkSketch(t, s)
					checkBounds(t, s, exact, total)
				}
			}
			if want := min(sc.k, len(exact)); s.Len() != want {
				t.Fatalf("tracks %d keys, want %d", s.Len(), want)
			}
		})
	}
}

// observation derives one packet from a key id: two flows per route entry,
// spread over three clusters and five tenants.
func observation(id int) Observation {
	return Observation{Cluster: id % 3, VNI: netpkt.VNI(100 + id%5),
		FlowHash: uint64(id) * 0x9e3779b97f4a7c15, DIP: ip(id / 2), WireLen: 64 + id%1000}
}

type flowID struct {
	cluster int
	key     FlowKey
}

type routeID struct {
	cluster int
	key     RouteKey
}

// checkTracker asserts the invariants on everything a tracker reports.
// Route upper bounds (estimate >= truth) hold only where one tracker saw a
// key's whole substream, which a merge across flow-hash shards does not
// give; merged says to skip that one check.
func checkTracker(t *testing.T, tr *Tracker, flows map[flowID]uint64, routes map[routeID]uint64, total uint64, merged bool) {
	t.Helper()
	if got := tr.TotalPackets(); got != total {
		t.Fatalf("TotalPackets = %d, want %d", got, total)
	}
	var sum uint64
	for _, f := range tr.TopFlows(0) {
		sum += f.Packets
		truth := flows[flowID{f.Cluster, FlowKey{f.VNI, f.FlowHash}}]
		if f.Packets < truth || f.Packets-f.MaxErr > truth {
			t.Fatalf("flow %+v outside bounds for true %d", f, truth)
		}
	}
	if sum != total {
		t.Fatalf("flow estimates sum to %d over %d packets", sum, total)
	}
	sum = 0
	for _, e := range tr.HotEntries(2).Entries {
		sum += e.Packets
		truth := routes[routeID{e.Cluster, RouteKey{e.VNI, e.DIP}}]
		if (!merged && e.Packets < truth) || e.Packets-e.MaxErr > truth {
			t.Fatalf("route %+v outside bounds for true %d", e, truth)
		}
	}
	// Full guaranteed coverage takes every entry: estimates are positive
	// and only all of them together sum to the total.
	if sum != total {
		t.Fatalf("route estimates sum to %d over %d packets", sum, total)
	}
	var vnis uint64
	for _, v := range tr.VNISkewSummary() {
		vnis += v.Packets
	}
	if vnis != total {
		t.Fatalf("per-VNI tallies sum to %d over %d packets", vnis, total)
	}
	for _, cs := range tr.clusters {
		if cs != nil {
			checkSketch(t, cs.flows)
			checkSketch(t, cs.routes)
		}
	}
}

// One stream through Observe, through ObserveBatch in ragged chunks, and
// through three flow-hash shards merged on read: the first two must agree
// exactly, all three must keep the invariants, across a Reset and re-warm.
func TestTrackerDifferential(t *testing.T) {
	for _, sc := range streams {
		t.Run(sc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(13))
			next := sc.next(r)
			single, batched := NewTracker(sc.k), NewTracker(sc.k)
			shards := []*Tracker{NewTracker(sc.k), NewTracker(sc.k), NewTracker(sc.k)}
			flows := make(map[flowID]uint64)
			routes := make(map[routeID]uint64)
			var total uint64
			var pending []Observation
			for w := 0; w < 4; w++ {
				if w == 2 {
					for _, tr := range append(shards, single, batched) {
						tr.Reset()
					}
					clear(flows)
					clear(routes)
					total = 0
				}
				for i := w * sc.n / 4; i < (w+1)*sc.n/4; i++ {
					o := observation(next(i))
					single.Observe(o.Cluster, o.VNI, o.FlowHash, o.DIP, o.WireLen)
					shards[o.FlowHash%3].Observe(o.Cluster, o.VNI, o.FlowHash, o.DIP, o.WireLen)
					if pending = append(pending, o); len(pending) > r.Intn(40) {
						batched.ObserveBatch(pending)
						pending = pending[:0]
					}
					flows[flowID{o.Cluster, FlowKey{o.VNI, o.FlowHash}}]++
					routes[routeID{o.Cluster, RouteKey{o.VNI, o.DIP}}]++
					total++
				}
				batched.ObserveBatch(pending)
				pending = pending[:0]
				checkTracker(t, single, flows, routes, total, false)
				checkTracker(t, batched, flows, routes, total, false)
				checkTracker(t, Merge(sc.k, shards...), flows, routes, total, true)
				if !reflect.DeepEqual(single.TopFlows(0), batched.TopFlows(0)) ||
					!reflect.DeepEqual(single.HotEntries(1), batched.HotEntries(1)) ||
					!reflect.DeepEqual(single.VNISkewSummary(), batched.VNISkewSummary()) {
					t.Fatalf("window %d: ObserveBatch and Observe disagree", w)
				}
			}
		})
	}
}

// Rankings repeat: two trackers fed the same packets report the same lists,
// equal counts included, and ties sit lower cluster id first. (Map-ordered
// cluster walks and an unstable count-only sort used to shuffle ties run to
// run once more than one cluster had traffic.)
func TestRankingsDeterministic(t *testing.T) {
	a, b := NewTracker(256), NewTracker(256)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		id := r.Intn(3000) // flat: most counts tie
		for _, tr := range []*Tracker{a, b} {
			tr.Observe(id%4, netpkt.VNI(100+id%7), uint64(id)*0x9e3779b97f4a7c15, ip(id), 100)
		}
	}
	if !reflect.DeepEqual(a.HotEntries(1), b.HotEntries(1)) {
		t.Fatal("HotEntries(1) differs between two trackers fed the same stream")
	}
	flows := a.TopFlows(0)
	if !reflect.DeepEqual(flows, b.TopFlows(0)) {
		t.Fatal("TopFlows(0) differs between two trackers fed the same stream")
	}
	ties := 0
	for i := 1; i < len(flows); i++ {
		p, q := flows[i-1], flows[i]
		if p.Packets < q.Packets || p.Packets == q.Packets && p.Cluster > q.Cluster {
			t.Fatalf("rank %d out of (estimate desc, cluster asc) order: %+v then %+v", i, p, q)
		}
		if p.Packets == q.Packets && p.Cluster != q.Cluster {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("stream produced no cross-cluster ties: the test checks nothing")
	}
}

// A packed route key gives back the address it was made from, family
// included, and distinct keys pack differently.
func TestPackedRoute(t *testing.T) {
	seen := make(map[packedRoute]RouteKey)
	for _, a := range []string{"10.1.2.3", "255.255.255.255", "::ffff:10.1.2.3", "2001:db8::1", "::", "0.0.0.0", ""} {
		for _, vni := range []netpkt.VNI{7, netpkt.MaxVNI} {
			k := RouteKey{VNI: vni}
			if a != "" {
				k.DIP = netip.MustParseAddr(a)
			}
			p := packRoute(k.VNI, k.DIP)
			if got := p.unpack(); got != k {
				t.Fatalf("packRoute(%v).unpack() = %v", k, got)
			}
			if other, dup := seen[p]; dup {
				t.Fatalf("%v and %v pack to the same key", k, other)
			}
			seen[p] = k
		}
	}
}

// The feed must stay allocation-free where the fast path and the placement
// cycle run it: ObserveBatch in steady state, and a whole window — Reset,
// then re-warming every sketch from empty — once a first window has sized
// the bucket rings.
func TestObserveBatchAndResetZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	next := zipf1(r, 2000)
	window := make([]Observation, 8192)
	for i := range window {
		window[i] = observation(next())
	}
	tr := NewTracker(512) // under the key count: the window evicts too
	tr.ObserveBatch(window)
	if allocs := testing.AllocsPerRun(20, func() { tr.ObserveBatch(window[:32]) }); allocs != 0 {
		t.Fatalf("steady-state ObserveBatch allocates %v/op, want 0", allocs)
	}
	tr.Reset()
	tr.ObserveBatch(window)
	if allocs := testing.AllocsPerRun(5, func() {
		tr.Reset()
		tr.ObserveBatch(window)
	}); allocs != 0 {
		t.Fatalf("Reset + re-warm allocates %v/cycle, want 0", allocs)
	}
	if tr.TotalPackets() != uint64(len(window)) || len(tr.HotEntries(0.5).Entries) == 0 {
		t.Fatal("tracker empty after a re-warmed window")
	}
}

// Batch writers against the readers and resets of a placement loop and a
// sharded scrape; meaningful under -race.
func TestObserveBatchConcurrent(t *testing.T) {
	trs := []*Tracker{NewTracker(64), NewTracker(64)}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				trs[g].HotEntries(0.95)
				Merge(64, trs...).TopFlows(8)
				if i%16 == 0 {
					trs[g].Reset()
				}
			}
		}(g)
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(w)))
			var buf [32]Observation
			for i := 0; i < 600; i++ {
				for j := range buf {
					buf[j] = observation(r.Intn(700))
				}
				trs[w%2].ObserveBatch(buf[:1+r.Intn(len(buf))])
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, tr := range trs {
		for _, cs := range tr.clusters {
			if cs != nil {
				checkSketch(t, cs.flows)
				checkSketch(t, cs.routes)
			}
		}
	}
}
