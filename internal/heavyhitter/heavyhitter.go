// Package heavyhitter measures the traffic skew that the paper's §5 "95/5"
// placement rule depends on: at cloud scale a few percent of (VNI,
// inner-DIP) route entries carry ~95% of traffic, so only those earn XGW-H
// table residency while the long tail rides the x86 pool. The data plane
// cannot afford exact per-flow counting, so this package implements the
// SpaceSaving top-K sketch (Metwally et al., "Efficient computation of
// frequent and top-k elements in data streams", 2005), ordered by that
// paper's stream-summary: K counters, O(1) per observation, with a per-entry
// error bound — the reported
// estimate is always >= the true count, and (estimate - err) is always <=
// the true count, so a controller can rank candidates with known slack.
//
// A Tracker wraps one flow sketch and one route-entry sketch per cluster
// plus exact per-VNI totals (VNIs number in the thousands, not millions, so
// exact counting is affordable there). Once a first measurement window has
// sized the sketches nothing on the feed allocates — not an eviction, not a
// window Reset — which is what lets the fast path feed it while keeping its
// 0 allocs/op pin.
package heavyhitter

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"sync"

	"sailfish/internal/netpkt"
)

// sketchKey lists the key types a sketch can hold. The set is closed because
// the index hashes keys itself (hashKey) rather than borrow the runtime's map
// hash; flows and packed routes are what Tracker uses.
type sketchKey interface {
	string | uint64 | FlowKey | packedRoute
}

// nilIdx ends a bucket's slot list.
const nilIdx = ^uint32(0)

// slot is one monitored counter. Its count lives in the bucket it hangs
// off; a key keeps its slot for as long as it is tracked, so the index is
// rewritten only when a key arrives or is evicted.
type slot[K sketchKey] struct {
	key        K
	err        uint64 // max overestimation carried in from the evicted key
	hash       uint32 // its top bits pick the key's home position in table
	bucket     uint32
	prev, next uint32 // neighbours in the bucket's slot list
}

// bucket groups the slots that hold one count (Metwally's stream-summary).
// Buckets form a ring in ascending count order through bucket 0, a sentinel
// with count 0 and no slots: the minimum is its next, the maximum its prev,
// and a unit increment moves a slot one bucket along.
type bucket struct {
	count      uint64
	first      uint32 // head of the slot list
	prev, next uint32 // ring neighbours; next also chains the free list
}

// SpaceSaving is a top-K frequency sketch over keys of type K. Its state is
// three pointer-free slices linked by index: nothing for the collector to
// scan, nothing reallocated by reset. Not concurrency-safe; Tracker provides
// locking.
type SpaceSaving[K sketchKey] struct {
	k     int
	slots []slot[K] // tracked keys, at most k; grown by append, kept by reset
	table []uint32  // open-addressed key index, linear probing: slot+1, 0 = empty
	shift uint32    // 32 - log2(len(table))
	bkts  []bucket
	free  uint32 // released buckets, 0 = none
}

// NewSpaceSaving builds a sketch tracking at most k keys.
func NewSpaceSaving[K sketchKey](k int) *SpaceSaving[K] {
	if k < 1 {
		k = 1
	}
	n := bits.Len(uint(2*k - 1)) // >= 2k positions: load factor <= 1/2
	return &SpaceSaving[K]{k: k, table: make([]uint32, 1<<n), shift: uint32(32 - n), bkts: make([]bucket, 1, 64)}
}

// Observe adds n occurrences of key. If the key is untracked and the sketch
// is full, a minimum entry is evicted and its count becomes the new entry's
// error bound — the SpaceSaving recycle step. A unit increment and an
// eviction are O(1); n > 1 may walk the bucket ring. It allocates only while
// the slot and bucket slices are still growing to their working size.
func (s *SpaceSaving[K]) Observe(key K, n uint64) { s.add(key, hashKey(key), n, 0) }

// add folds count occurrences of key into the sketch, with err of imported
// overestimation (non-zero only when merging another sketch's entry). h is
// hashKey(key), which hot callers already hold.
func (s *SpaceSaving[K]) add(key K, h uint32, count, err uint64) {
	if count == 0 {
		return
	}
	i, tracked := s.find(key, h)
	switch {
	case tracked:
		s.slots[i].err += err
	case len(s.slots) < s.k:
		i = uint32(len(s.slots))
		s.slots = append(s.slots, slot[K]{key: key, err: err, hash: h})
		s.index(i)
	default:
		// Evict a minimum: the newcomer inherits its counter, and that old
		// count becomes the bound on how much we may now be overestimating.
		min := &s.bkts[s.bkts[0].next]
		i = min.first
		s.unindex(i)
		sl := &s.slots[i]
		sl.key, sl.hash, sl.err = key, h, min.count+err
		s.index(i)
	}
	s.raise(i, count)
}

// find probes the index for key.
func (s *SpaceSaving[K]) find(key K, h uint32) (uint32, bool) {
	mask := uint32(len(s.table) - 1)
	for p := h >> s.shift; s.table[p] != 0; p = (p + 1) & mask {
		if i := s.table[p] - 1; s.slots[i].hash == h && s.slots[i].key == key {
			return i, true
		}
	}
	return 0, false
}

// index enters slot i under its hash.
func (s *SpaceSaving[K]) index(i uint32) {
	p := s.slots[i].hash >> s.shift
	for s.table[p] != 0 {
		p = (p + 1) & uint32(len(s.table)-1)
	}
	s.table[p] = i + 1
}

// unindex removes slot i from the index, shifting the rest of its probe run
// back over the hole so that no tombstones are needed.
func (s *SpaceSaving[K]) unindex(i uint32) {
	mask := uint32(len(s.table) - 1)
	p := s.slots[i].hash >> s.shift
	for s.table[p] != i+1 {
		p = (p + 1) & mask
	}
	for q := (p + 1) & mask; s.table[q] != 0; q = (q + 1) & mask {
		// An entry may drop into the hole at p unless its home lies in (p, q].
		if home := s.slots[s.table[q]-1].hash >> s.shift; (q-home)&mask >= (q-p)&mask {
			s.table[p] = s.table[q]
			p = q
		}
	}
	s.table[p] = 0
}

// raise adds n to slot i's count: it moves the slot to the bucket for the
// new count, making that bucket and releasing the old one as needed. A slot
// not yet counted sits in no list and names the sentinel as its bucket.
func (s *SpaceSaving[K]) raise(i uint32, n uint64) {
	sl := &s.slots[i]
	at := sl.bucket // the walk starts from a bucket known to hold a smaller count
	bk := &s.bkts[at]
	c := bk.count + n
	if at != 0 {
		alone := bk.first == i && sl.next == nilIdx
		if alone && (bk.next == 0 || s.bkts[bk.next].count > c) {
			bk.count = c // the bucket moves with its only slot
			return
		}
		if sl.prev != nilIdx {
			s.slots[sl.prev].next = sl.next
		} else {
			bk.first = sl.next
		}
		if sl.next != nilIdx {
			s.slots[sl.next].prev = sl.prev
		}
		if alone {
			s.bkts[bk.prev].next, s.bkts[bk.next].prev = bk.next, bk.prev
			at, bk.next, s.free = bk.prev, s.free, at
		}
	}
	nx := s.bkts[at].next
	for nx != 0 && s.bkts[nx].count < c {
		at, nx = nx, s.bkts[nx].next
	}
	if nx == 0 || s.bkts[nx].count != c {
		nx = s.linkBucket(c, at)
	}
	bk = &s.bkts[nx]
	sl.bucket, sl.prev, sl.next = nx, nilIdx, bk.first
	if bk.first != nilIdx {
		s.slots[bk.first].prev = i
	}
	bk.first = i
}

// linkBucket puts an empty bucket for count c into the ring after prev.
func (s *SpaceSaving[K]) linkBucket(c uint64, prev uint32) uint32 {
	b := s.free
	if b != 0 {
		s.free = s.bkts[b].next
	} else {
		b = uint32(len(s.bkts))
		s.bkts = append(s.bkts, bucket{})
	}
	next := s.bkts[prev].next
	s.bkts[b] = bucket{count: c, first: nilIdx, prev: prev, next: next}
	s.bkts[prev].next, s.bkts[next].prev = b, b
	return b
}

// reset empties the sketch in place, keeping every slice.
func (s *SpaceSaving[K]) reset() {
	clear(s.table)
	s.slots, s.bkts, s.free = s.slots[:0], s.bkts[:1], 0
	s.bkts[0] = bucket{}
}

// Counted is a sketch entry exported for ranking: Count >= true count and
// Count-Err <= true count.
type Counted[K sketchKey] struct {
	Key   K
	Count uint64
	Err   uint64
}

// Top returns all tracked entries, highest estimated count first, by
// walking the ring backwards; entries with equal counts come out in an order
// that depends only on the stream.
func (s *SpaceSaving[K]) Top() []Counted[K] {
	out := make([]Counted[K], 0, len(s.slots))
	for b := s.bkts[0].prev; b != 0; b = s.bkts[b].prev {
		for i := s.bkts[b].first; i != nilIdx; i = s.slots[i].next {
			out = append(out, Counted[K]{Key: s.slots[i].key, Count: s.bkts[b].count, Err: s.slots[i].err})
		}
	}
	return out
}

// Len reports how many keys the sketch currently tracks.
func (s *SpaceSaving[K]) Len() int { return len(s.slots) }

// FlowKey identifies a flow by tenant network and inner 5-tuple hash.
type FlowKey struct {
	VNI  netpkt.VNI
	Hash uint64
}

// RouteKey identifies a gateway table entry: the (VNI, inner destination)
// pair that would occupy an XGW-H slot.
type RouteKey struct {
	VNI netpkt.VNI
	DIP netip.Addr
}

// packedRoute is a RouteKey without netip.Addr's interned-zone pointer, so
// that route sketches stay pointer-free: the 24-bit VNI above the address's
// BitLen (0, 32 or 128) in one word, and the address as 16 bytes. An IPv6
// zone is not kept; destinations parsed off the wire have none.
type packedRoute struct {
	vni    uint32
	hi, lo uint64
}

func packRoute(vni netpkt.VNI, dip netip.Addr) packedRoute {
	a := dip.As16()
	return packedRoute{uint32(vni)<<8 | uint32(dip.BitLen()),
		binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])}
}

func (p packedRoute) tenant() netpkt.VNI { return netpkt.VNI(p.vni >> 8) }

func (p packedRoute) unpack() RouteKey {
	var a [16]byte
	binary.BigEndian.PutUint64(a[:8], p.hi)
	binary.BigEndian.PutUint64(a[8:], p.lo)
	k := RouteKey{VNI: p.tenant()}
	switch p.vni & 0xff {
	case 32:
		k.DIP = netip.AddrFrom16(a).Unmap()
	case 128:
		k.DIP = netip.AddrFrom16(a)
	}
	return k
}

// Multiply-shift mixing: the index reads a hash from the top bits down, and
// the top bits of a product by an odd constant depend on every input bit.
const (
	mix1 = 0x9e3779b97f4a7c15
	mix2 = 0xc2b2ae3d27d4eb4f
)

var stringSeed = maphash.MakeSeed()

func (k FlowKey) hash() uint32 { return uint32((k.Hash ^ uint64(k.VNI)*mix1) * mix2 >> 32) }

func (p packedRoute) hash() uint32 {
	h := (p.hi ^ uint64(p.vni)) * mix1
	return uint32((h ^ h>>32 ^ p.lo) * mix2 >> 32)
}

// hashKey serves callers that hold no hash of their own; Tracker calls the
// typed methods directly.
func hashKey[K sketchKey](key K) uint32 {
	switch k := any(key).(type) {
	case FlowKey:
		return k.hash()
	case packedRoute:
		return k.hash()
	case uint64:
		return uint32(k * mix1 >> 32)
	case string:
		return uint32(maphash.String(stringSeed, k) >> 32)
	}
	panic("unreachable: sketchKey is a closed set")
}

// tally is an exact packet and byte count.
type tally struct {
	pkts  uint64
	bytes uint64
}

func (c *tally) add(pkts, bytes uint64) { c.pkts += pkts; c.bytes += bytes }

// clusterSketch is one cluster's view: hot flows, hot route entries, and
// exact totals for share computation.
type clusterSketch struct {
	flows  *SpaceSaving[FlowKey]
	routes *SpaceSaving[packedRoute]
	tally
}

// Observation is one steered packet as the tracker books it.
type Observation struct {
	Cluster  int
	VNI      netpkt.VNI
	FlowHash uint64
	DIP      netip.Addr // inner destination
	WireLen  int
}

// Tracker is the controller-facing aggregator the steering paths feed. All
// methods are safe for concurrent use. A feeder that works in batches
// collects Observations in a buffer it owns and hands them to ObserveBatch,
// paying for the mutex once per batch; in steady state neither entry point
// allocates.
type Tracker struct {
	mu       sync.Mutex
	k        int
	clusters []*clusterSketch // by cluster id; nil until the cluster sees traffic
	vnis     map[netpkt.VNI]*tally
	// vniMemo is a direct-mapped front of vnis (a miss falls through to
	// the map): tenants interleave packet by packet, so a one-entry memo
	// would miss nearly always.
	vniMemo [256]struct {
		id netpkt.VNI
		t  *tally
	}
	tally
}

// NewTracker builds a Tracker whose per-cluster sketches hold k entries
// each (k <= 0 defaults to 1024, comfortably above the hot-entry population
// the 95/5 rule predicts).
func NewTracker(k int) *Tracker {
	if k <= 0 {
		k = 1024
	}
	return &Tracker{k: k, vnis: make(map[netpkt.VNI]*tally)}
}

// Observe records one steered packet: which cluster it went to, its tenant
// network, flow hash, inner destination and wire length.
func (t *Tracker) Observe(cluster int, vni netpkt.VNI, flowHash uint64, dip netip.Addr, wireLen int) {
	t.ObserveBatch([]Observation{{Cluster: cluster, VNI: vni, FlowHash: flowHash, DIP: dip, WireLen: wireLen}})
}

// ObserveBatch records obs in order under one lock acquisition; the tracker
// ends in exactly the state len(obs) Observe calls would leave.
func (t *Tracker) ObserveBatch(obs []Observation) {
	if t == nil || len(obs) == 0 {
		return
	}
	t.mu.Lock()
	for i := range obs {
		t.observe(&obs[i])
	}
	t.mu.Unlock()
}

func (t *Tracker) observe(o *Observation) {
	cs := t.cluster(o.Cluster)
	fk := FlowKey{VNI: o.VNI, Hash: o.FlowHash}
	cs.flows.add(fk, fk.hash(), 1, 0)
	rk := packRoute(o.VNI, o.DIP)
	cs.routes.add(rk, rk.hash(), 1, 0)
	cs.add(1, uint64(o.WireLen))
	t.vni(o.VNI).add(1, uint64(o.WireLen))
	t.add(1, uint64(o.WireLen))
}

// cluster returns a cluster's sketches, built on its first traffic. Caller
// holds mu.
func (t *Tracker) cluster(id int) *clusterSketch {
	for len(t.clusters) <= id {
		t.clusters = append(t.clusters, nil)
	}
	if t.clusters[id] == nil {
		t.clusters[id] = &clusterSketch{flows: NewSpaceSaving[FlowKey](t.k), routes: NewSpaceSaving[packedRoute](t.k)}
	}
	return t.clusters[id]
}

// vni returns a tenant's exact tally. Caller holds mu.
func (t *Tracker) vni(id netpkt.VNI) *tally {
	m := &t.vniMemo[id%netpkt.VNI(len(t.vniMemo))]
	if m.t == nil || m.id != id {
		m.id, m.t = id, t.vnis[id]
		if m.t == nil {
			m.t = &tally{}
			t.vnis[id] = m.t
		}
	}
	return m.t
}

// Merge returns a fresh Tracker combining the given trackers' sketches and
// tallies — the scrape-side view of a sharded plane where each shard worker
// feeds its own tracker. Exact tallies (per-cluster, per-VNI, totals) sum
// exactly. Sketch entries sum count and error bounds per key; when the
// merged sketch is full a newcomer takes over a minimum entry, whose count
// is added onto the incoming error. Flows are sharded by flow hash, so each
// FlowKey's whole substream lives in one shard tracker and the summed bounds
// stay valid; route keys can span shards, where the merged estimate keeps
// Count >= (sum of tracked substreams) with the usual SpaceSaving error
// semantics. Merging allocates; it is for scrape cadence, not the packet
// path. Nil trackers are skipped.
func Merge(k int, shards ...*Tracker) *Tracker {
	m := NewTracker(k)
	for _, t := range shards {
		if t == nil {
			continue
		}
		t.mu.Lock()
		for id, cs := range t.clusters {
			if cs == nil || cs.pkts == 0 {
				continue
			}
			mc := m.cluster(id)
			for _, e := range cs.flows.Top() {
				mc.flows.add(e.Key, e.Key.hash(), e.Count, e.Err)
			}
			for _, e := range cs.routes.Top() {
				mc.routes.add(e.Key, e.Key.hash(), e.Count, e.Err)
			}
			mc.add(cs.pkts, cs.bytes)
		}
		for id, vc := range t.vnis {
			if vc.pkts != 0 {
				m.vni(id).add(vc.pkts, vc.bytes)
			}
		}
		m.add(t.pkts, t.bytes)
		t.mu.Unlock()
	}
	return m
}

// Reset empties every sketch and tally, starting a fresh measurement
// window. The placement loop uses it to make per-cycle shares reflect the
// current workload instead of all traffic since boot, so entries whose
// popularity faded actually fall below the demotion threshold. Everything
// is cleared in place (one memclr per sketch index), so the next window
// re-warms into the same memory without allocating.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, cs := range t.clusters {
		if cs != nil {
			cs.flows.reset()
			cs.routes.reset()
			cs.tally = tally{}
		}
	}
	for _, vc := range t.vnis {
		*vc = tally{} // kept for the next window; readers skip empty tallies
	}
	t.tally = tally{}
	t.mu.Unlock()
}

// TotalPackets reports how many observations the tracker has absorbed.
func (t *Tracker) TotalPackets() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pkts
}

// HotFlow is one entry of the flow top-K, ranked across clusters.
type HotFlow struct {
	Cluster  int
	VNI      netpkt.VNI
	FlowHash uint64
	Packets  uint64 // SpaceSaving estimate (>= true count)
	MaxErr   uint64 // overestimation bound
	Share    float64
}

// TopFlows returns up to n hot flows across every cluster, highest
// estimated packet count first. Like every ranking here it repeats run to
// run: each sketch lists its entries in count order already, so the stable
// sort only interleaves the clusters — equal estimates go lower cluster id
// first and otherwise keep sketch order, which depends only on the stream.
func (t *Tracker) TopFlows(n int) []HotFlow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []HotFlow
	for id, cs := range t.clusters {
		if cs == nil {
			continue
		}
		for _, c := range cs.flows.Top() {
			out = append(out, HotFlow{
				Cluster:  id,
				VNI:      c.Key.VNI,
				FlowHash: c.Key.Hash,
				Packets:  c.Count,
				MaxErr:   c.Err,
				Share:    share(c.Count, t.pkts),
			})
		}
	}
	slices.SortStableFunc(out, func(a, b HotFlow) int { return cmp.Compare(b.Packets, a.Packets) })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// HotEntry is a (VNI, inner-DIP) route entry that qualifies for XGW-H
// residency.
type HotEntry struct {
	Cluster int
	VNI     netpkt.VNI
	DIP     netip.Addr
	Packets uint64 // SpaceSaving estimate (>= true count)
	MaxErr  uint64
	Share   float64
}

// Residency is the controller-facing answer to "which entries deserve
// hardware slots": the smallest prefix of the route-entry ranking whose
// estimated cumulative share reaches Target.
type Residency struct {
	Target   float64    // requested traffic coverage, e.g. 0.95
	Achieved float64    // conservative coverage of Entries: sum(est-err)/total
	Entries  []HotEntry // descending by estimated packets
}

// HotEntries ranks route entries across clusters and cuts the list at the
// requested coverage target (the 95 in 95/5). Achieved uses the sketch's
// lower bounds, so it never overstates what the hot set carries.
//
// Targets are clamped to [0, 1]: target <= 0 asks for no coverage and
// returns an empty residency set (the controller's "evict everything"
// intent, not "everything is hot"), and targets above 1 behave as 1 —
// the full ranking.
func (t *Tracker) HotEntries(target float64) Residency {
	res := Residency{Target: target}
	if t == nil {
		return res
	}
	if target <= 0 || math.IsNaN(target) {
		res.Target = 0
		return res
	}
	if target > 1 {
		target = 1
		res.Target = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pkts == 0 {
		return res
	}
	var all []HotEntry
	for id, cs := range t.clusters {
		if cs == nil {
			continue
		}
		for _, c := range cs.routes.Top() {
			key := c.Key.unpack()
			all = append(all, HotEntry{
				Cluster: id,
				VNI:     key.VNI,
				DIP:     key.DIP,
				Packets: c.Count,
				MaxErr:  c.Err,
				Share:   share(c.Count, t.pkts),
			})
		}
	}
	slices.SortStableFunc(all, func(a, b HotEntry) int { return cmp.Compare(b.Packets, a.Packets) })
	var sure uint64
	for _, e := range all {
		if res.Achieved >= target {
			break
		}
		res.Entries = append(res.Entries, e)
		sure += e.Packets - e.MaxErr
		res.Achieved = share(sure, t.pkts)
	}
	if res.Achieved > 1 {
		res.Achieved = 1
	}
	return res
}

// VNISkew is the water-level view of one tenant network: how much of the
// region's traffic it carries and how concentrated that traffic is on its
// tracked hot route entries.
type VNISkew struct {
	VNI      netpkt.VNI
	Packets  uint64
	Bytes    uint64
	Share    float64 // of all observed packets
	HotShare float64 // of this VNI's packets carried by tracked hot entries
}

// VNISkewSummary returns per-VNI totals with hot-entry concentration,
// biggest VNI first.
func (t *Tracker) VNISkewSummary() []VNISkew {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	hot := make(map[netpkt.VNI]uint64)
	for _, cs := range t.clusters {
		if cs == nil {
			continue
		}
		for _, c := range cs.routes.Top() {
			hot[c.Key.tenant()] += c.Count - c.Err
		}
	}
	out := make([]VNISkew, 0, len(t.vnis))
	for vni, vc := range t.vnis {
		if vc.pkts == 0 {
			continue
		}
		s := VNISkew{
			VNI:      vni,
			Packets:  vc.pkts,
			Bytes:    vc.bytes,
			Share:    share(vc.pkts, t.pkts),
			HotShare: share(hot[vni], vc.pkts),
		}
		if s.HotShare > 1 {
			s.HotShare = 1
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].VNI < out[j].VNI
	})
	return out
}

func share(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}
