package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"sailfish/internal/heavyhitter"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/trace"
	"sailfish/internal/xgwh"
)

// Driver processes packets through a region concurrently: one worker
// goroutine per XGW-H node, matching the hardware reality that every chip
// is an independent pipeline while each chip processes its own packets
// serially. The front-end routing decision is taken on the submitting side
// (the load balancer is a separate device), then the packet is queued to
// its node's worker.
//
// Queues carry batches rather than single packets so a burst costs one
// channel operation per node instead of one per packet, and both the
// batches and the raw-byte copies are recycled through sync.Pools so the
// steady state stops allocating.
//
// The Driver serves the steady state: control-plane mutations (installs,
// failovers) must not run concurrently with Submit, just as production
// quiesces a node before reprogramming it. Stats, ResetStats and the
// metrics scrape ARE safe concurrently with submission — every counter the
// driver (and the region under it) touches is atomic.
type Driver struct {
	region  *Region
	queues  map[string]chan *jobBatch
	resultq chan *resultBatch
	results chan DriverResult
	wg      sync.WaitGroup
	demuxWG sync.WaitGroup
	depth   int

	// mu serializes Close against in-flight Submit/SubmitBatch sends:
	// submitters hold the read side across the (nonblocking) channel send,
	// Close takes the write side to flip closed before closing the queues,
	// so a send can never hit a closed channel.
	mu     sync.RWMutex
	closed bool

	stats driverCounters

	// Recycling runs through bounded freelist channels with the sync.Pools
	// as overflow: a GC cycle empties the pools (dropping every grown slice
	// capacity with them), so on a long-lived driver the pools alone leave a
	// steady trickle of re-allocation on the submit path. The freelists are
	// GC-proof and sized like a NIC mempool — to the worst-case in-flight
	// population the topology allows (queues × depth × defaultBatchCap jobs,
	// capped at maxBufFreeSlots) — so in steady state every buffer the
	// submitter needs is one a worker already returned, and the pools only
	// absorb bursts beyond that ceiling (outsized caller batches).
	batchFree   chan *jobBatch
	resFree     chan *resultBatch
	bufFree     chan *[]byte
	batchPool   sync.Pool // *jobBatch overflow
	resPool     sync.Pool // *resultBatch overflow
	bufPool     sync.Pool // *[]byte packet copies, overflow
	scratchPool sync.Pool // *batchScratch per-SubmitBatch grouping state
}

// defaultBatchCap pre-sizes recycled job/result slices so a fresh batch
// does not pay the append growth chain packet by packet.
const defaultBatchCap = 64

// defaultBufCap pre-sizes recycled packet buffers; frames up to this length
// reuse any recycled buffer instead of only same-or-larger ones.
const defaultBufCap = 2048

// maxBufFreeSlots caps the packet-buffer freelist: the slot array itself is
// allocated eagerly (8 B/slot), and retained buffers never shrink back, so
// a deep-queue many-node driver is bounded at 2 MiB of slots rather than
// scaling without limit.
const maxBufFreeSlots = 1 << 18

// Driver drop-reason codes. The hot path increments a fixed array indexed
// by these; names are materialized only on the slow path (Stats, scrape).
const (
	dDropNone uint8 = iota
	dDropParseError
	dDropNoRoute
	dDropClusterDisabled
	dDropNoLiveNode
	dDropNoHealthyPort
	dDropRxQueueFull
	dDropClosed
	numDriverDropReasons
)

var driverDropName = [numDriverDropReasons]string{
	dDropNone:            "",
	dDropParseError:      "parse_error",
	dDropNoRoute:         "no_route",
	dDropClusterDisabled: "cluster_disabled",
	dDropNoLiveNode:      "no_live_node",
	dDropNoHealthyPort:   "no_healthy_port",
	dDropRxQueueFull:     "rx_queue_full",
	dDropClosed:          "driver_closed",
}

// driverCounters is the driver's live counter block; every cell is atomic
// so Stats and the metrics scrape read coherently while submitters and
// workers run.
type driverCounters struct {
	accepted atomic.Uint64
	dropped  atomic.Uint64
	drops    [numDriverDropReasons]atomic.Uint64
}

// DriverStats is a snapshot of the driver's submission accounting.
// Accepted + Dropped equals the number of packets ever handed to Submit
// or SubmitBatch (each submitted packet lands in exactly one bucket).
type DriverStats struct {
	Accepted    uint64
	Dropped     uint64
	DropReasons map[string]uint64
}

type job struct {
	// raw points at the pooled backing buffer holding the packet copy; the
	// worker returns it to bufPool after processing.
	raw  *[]byte
	now  time.Time
	node *Node
	meta Result
	// fh and vni carry the front parse's flow identity so queue-level drops
	// (tail drop, submit-after-close) can emit flight-recorder events
	// without reparsing the copied bytes.
	fh  uint64
	vni netpkt.VNI
}

type jobBatch struct {
	jobs []job
}

// batchScratch is the per-SubmitBatch grouping state: parallel slices
// mapping each destination node seen in the batch to its accumulating
// jobBatch. A linear scan replaces the old per-call map — batches touch a
// handful of nodes, and recycling the slices through a pool keeps the
// steady-state submission path allocation-free even with concurrent
// submitters.
type batchScratch struct {
	nodes  []*Node
	groups []*jobBatch
	// obs collects the batch's steered packets for one heavy-hitter
	// hand-off (one tracker lock per SubmitBatch, not per packet).
	obs []heavyhitter.Observation
}

// resultBatch carries one processed jobBatch's outcomes from a worker to
// the demux goroutine, so workers pay one channel operation per batch.
type resultBatch struct {
	res []DriverResult
}

// DriverResult is one packet's outcome from the concurrent path.
type DriverResult struct {
	Result Result
	Err    error
}

// NewDriver builds a driver over the region's current live topology.
// queueDepth bounds each node's RX queue (in batches); a full queue drops
// the batch (tail drop, as a NIC would).
func NewDriver(r *Region, queueDepth int) *Driver {
	if queueDepth <= 0 {
		queueDepth = 256
	}
	// Worst-case in-flight batches: every node RX queue full plus the
	// result queue; buffers scale that by the jobs-per-batch pre-size.
	// Freelists that cover the whole population make recycling GC-proof
	// end to end (see the field comment).
	qcount := 0
	for _, c := range r.Clusters {
		qcount += len(c.Nodes) + len(c.Backup.Nodes)
	}
	inflight := qcount*queueDepth + queueDepth*2
	bufSlots := inflight * defaultBatchCap
	if bufSlots > maxBufFreeSlots {
		bufSlots = maxBufFreeSlots
	}
	d := &Driver{
		region:    r,
		queues:    make(map[string]chan *jobBatch),
		resultq:   make(chan *resultBatch, queueDepth*2),
		results:   make(chan DriverResult, queueDepth*4),
		depth:     queueDepth,
		batchFree: make(chan *jobBatch, inflight),
		resFree:   make(chan *resultBatch, queueDepth*2),
		bufFree:   make(chan *[]byte, bufSlots),
	}
	for _, c := range r.Clusters {
		for _, set := range [][]*Node{c.Nodes, c.Backup.Nodes} {
			for _, n := range set {
				q := make(chan *jobBatch, queueDepth)
				d.queues[n.ID] = q
				d.wg.Add(1)
				go d.worker(q)
			}
		}
	}
	d.demuxWG.Add(1)
	go d.demux()
	return d
}

// worker owns one gateway: packets are processed strictly in arrival order,
// preserving the single-threaded gateway invariant. Outcomes leave as one
// resultBatch per jobBatch. Region counters are updated per completed
// packet exactly as the single-shot path does, so Region.Stats stays in
// parity whichever path carried the traffic.
func (d *Driver) worker(q chan *jobBatch) {
	defer d.wg.Done()
	for b := range q {
		rb := d.getResultBatch()
		for i := range b.jobs {
			j := &b.jobs[i]
			res, err := j.node.GW.ProcessPacket(*j.raw, j.now)
			if err == nil {
				switch res.Action {
				case xgwh.ActionForward:
					d.region.stats.forwarded.Add(1)
				case xgwh.ActionDrop:
					d.region.stats.dropped.Add(1)
				case xgwh.ActionFallback:
					d.region.stats.fallback.Add(1)
				}
			}
			out := j.meta
			out.GW = res
			rb.res = append(rb.res, DriverResult{Result: out, Err: err})
			d.putBuf(j.raw)
			j.raw = nil
		}
		d.putBatch(b)
		d.resultq <- rb
	}
}

// demux fans worker result batches out onto the public per-result channel.
func (d *Driver) demux() {
	defer d.demuxWG.Done()
	for rb := range d.resultq {
		for i := range rb.res {
			d.results <- rb.res[i]
		}
		d.putResultBatch(rb)
	}
}

func (d *Driver) getBatch() *jobBatch {
	select {
	case b := <-d.batchFree:
		return b
	default:
	}
	if b, _ := d.batchPool.Get().(*jobBatch); b != nil {
		return b
	}
	return &jobBatch{jobs: make([]job, 0, defaultBatchCap)}
}

// putBatch recycles an emptied batch: freelist first, pool overflow.
func (d *Driver) putBatch(b *jobBatch) {
	b.jobs = b.jobs[:0]
	select {
	case d.batchFree <- b:
	default:
		d.batchPool.Put(b)
	}
}

// getBuf returns a recycled buffer resized to n bytes.
func (d *Driver) getBuf(n int) *[]byte {
	var p *[]byte
	select {
	case p = <-d.bufFree:
	default:
		p, _ = d.bufPool.Get().(*[]byte)
	}
	if p == nil {
		b := make([]byte, n, max(n, defaultBufCap))
		return &b
	}
	if cap(*p) < n {
		*p = make([]byte, n, max(n, defaultBufCap))
	} else {
		*p = (*p)[:n]
	}
	return p
}

// putBuf recycles a packet buffer: freelist first, pool overflow.
func (d *Driver) putBuf(p *[]byte) {
	select {
	case d.bufFree <- p:
	default:
		d.bufPool.Put(p)
	}
}

func (d *Driver) getResultBatch() *resultBatch {
	select {
	case rb := <-d.resFree:
		return rb
	default:
	}
	if rb, _ := d.resPool.Get().(*resultBatch); rb != nil {
		return rb
	}
	return &resultBatch{res: make([]DriverResult, 0, defaultBatchCap)}
}

// putResultBatch recycles an emptied result batch: freelist first, pool
// overflow.
func (d *Driver) putResultBatch(rb *resultBatch) {
	rb.res = rb.res[:0]
	select {
	case d.resFree <- rb:
	default:
		d.resPool.Put(rb)
	}
}

func (d *Driver) getScratch() *batchScratch {
	if s, _ := d.scratchPool.Get().(*batchScratch); s != nil {
		return s
	}
	return &batchScratch{}
}

func (d *Driver) putScratch(s *batchScratch) {
	s.nodes = s.nodes[:0]
	s.groups = s.groups[:0]
	s.obs = s.obs[:0]
	d.scratchPool.Put(s)
}

// recycle returns a batch's buffers and the batch itself to their pools
// without processing (used on tail drop).
func (d *Driver) recycle(b *jobBatch) {
	for i := range b.jobs {
		d.putBuf(b.jobs[i].raw)
		b.jobs[i].raw = nil
	}
	d.putBatch(b)
}

// drop accounts n packets lost for the given reason, both in the driver's
// own taxonomy and in the region counters so Region.Stats matches what the
// single-shot path would have recorded for the same packets: steering
// misses land in NoRoute, everything else (including RX-queue tail drops
// and submits after Close, which have no single-shot analog but are still
// lost packets) lands in Dropped.
func (d *Driver) drop(reason uint8, n uint64) {
	d.stats.drops[reason].Add(n)
	d.stats.dropped.Add(n)
	if reason == dDropNoRoute {
		d.region.stats.noRoute.Add(n)
	} else {
		d.region.stats.dropped.Add(n)
	}
}

// route takes the submitting-side decision for one packet — lightweight
// front parse, steering, node and egress-port pick, all off a single flow
// hash — copies the bytes into a pooled buffer and fills j. It returns
// dDropNone on success or the reason the packet is unroutable (the caller
// accounts the counter; route itself emits the flight-recorder drop event,
// which is always-on, and the sampled steered event on success). With a
// heavy-hitter tracker attached, the steered packet is appended to *obs for
// the caller to hand over in one batch, or observed directly when obs is nil.
func (d *Driver) route(raw []byte, now time.Time, j *job, obs *[]heavyhitter.Observation) uint8 {
	var fm netpkt.FrontMeta
	if err := netpkt.ParseFront(raw, &fm); err != nil {
		d.traceDriverDrop(dDropParseError, 0, 0, 0, now)
		return dDropParseError
	}
	flowHash := fm.Flow.FastHash()
	clusterID, nodeIdx, err := d.region.FrontEnd.Route(fm.VNI, flowHash)
	if err != nil {
		d.traceDriverDrop(dDropNoRoute, flowHash, fm.VNI, 0, now)
		return dDropNoRoute
	}
	if !d.region.ClusterEnabled(clusterID) {
		d.traceDriverDrop(dDropClusterDisabled, flowHash, fm.VNI, 0, now)
		return dDropClusterDisabled
	}
	c := d.region.serving(clusterID)
	live := c.LiveNodes()
	if len(live) == 0 {
		d.traceDriverDrop(dDropNoLiveNode, flowHash, fm.VNI, 0, now)
		return dDropNoLiveNode
	}
	node := live[nodeIdx%len(live)]
	port, ok := node.PickPort(flowHash)
	if !ok {
		d.traceDriverDrop(dDropNoHealthyPort, flowHash, fm.VNI, node.trDev, now)
		return dDropNoHealthyPort
	}
	if hh := d.region.hh; hh != nil {
		if obs != nil {
			*obs = append(*obs, heavyhitter.Observation{Cluster: clusterID, VNI: fm.VNI,
				FlowHash: flowHash, DIP: fm.Flow.Dst, WireLen: fm.WireLen})
		} else {
			hh.Observe(clusterID, fm.VNI, flowHash, fm.Flow.Dst, fm.WireLen)
		}
	}
	if tr := d.region.tr; tr != nil && tr.Sampled(flowHash) {
		tr.Record(trace.Event{TimeNs: now.UnixNano(), FlowHash: flowHash,
			VNI: fm.VNI, Dev: node.trDev, Stage: trace.StageDriver, Verdict: trace.VerdictSteered})
	}
	cp := d.getBuf(len(raw))
	copy(*cp, raw)
	*j = job{raw: cp, now: now, node: node,
		meta: Result{ClusterID: clusterID, NodeID: node.ID, EgressPort: port},
		fh:   flowHash, vni: fm.VNI}
	return dDropNone
}

// traceDriverDrop emits one always-on flight-recorder drop event from the
// submission path. No-op when tracing is off.
func (d *Driver) traceDriverDrop(reason uint8, fh uint64, vni netpkt.VNI, dev uint16, now time.Time) {
	if tr := d.region.tr; tr != nil {
		tr.Record(trace.Event{TimeNs: now.UnixNano(), FlowHash: fh, VNI: vni,
			Dev: dev, Stage: trace.StageDriver, Verdict: trace.VerdictDrop, Code: reason})
	}
}

// traceDropBatch records drop events for every job in a batch about to be
// recycled unprocessed (RX tail drop or submit-after-close).
func (d *Driver) traceDropBatch(b *jobBatch, reason uint8) {
	if d.region.tr == nil {
		return
	}
	for i := range b.jobs {
		j := &b.jobs[i]
		d.traceDriverDrop(reason, j.fh, j.vni, j.node.trDev, j.now)
	}
}

// Submit routes the packet and enqueues it to its node as a batch of one.
// It reports false when the packet was dropped — at routing, by a full
// queue, or because the driver is closed — and every such drop is counted
// by reason. The raw slice is copied; callers may reuse their buffer.
func (d *Driver) Submit(raw []byte, now time.Time) bool {
	var j job
	if reason := d.route(raw, now, &j, nil); reason != dDropNone {
		d.drop(reason, 1)
		return false
	}
	b := d.getBatch()
	b.jobs = append(b.jobs, j)
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		d.traceDropBatch(b, dDropClosed)
		d.recycle(b)
		d.drop(dDropClosed, 1)
		return false
	}
	select {
	case d.queues[j.node.ID] <- b:
		d.mu.RUnlock()
		d.stats.accepted.Add(1)
		return true
	default:
		d.mu.RUnlock()
		d.traceDropBatch(b, dDropRxQueueFull)
		d.recycle(b) // RX queue overflow: tail drop
		d.drop(dDropRxQueueFull, 1)
		return false
	}
}

// SubmitBatch routes a batch of packets and enqueues them grouped per node,
// so each node's RX queue is hit once per batch instead of once per packet.
// Unroutable packets are skipped (and counted by reason); a full node queue
// tail-drops that node's whole group; after Close every packet is rejected.
// It returns the number of packets accepted. Raw slices are copied into
// pooled buffers; callers may reuse them immediately.
func (d *Driver) SubmitBatch(raws [][]byte, now time.Time) int {
	s := d.getScratch()
	for _, raw := range raws {
		var j job
		if reason := d.route(raw, now, &j, &s.obs); reason != dDropNone {
			d.drop(reason, 1)
			continue
		}
		var b *jobBatch
		for i, n := range s.nodes {
			if n == j.node {
				b = s.groups[i]
				break
			}
		}
		if b == nil {
			b = d.getBatch()
			s.nodes = append(s.nodes, j.node)
			s.groups = append(s.groups, b)
		}
		b.jobs = append(b.jobs, j)
	}
	d.region.hh.ObserveBatch(s.obs)
	accepted := 0
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		for _, b := range s.groups {
			n := uint64(len(b.jobs))
			d.traceDropBatch(b, dDropClosed)
			d.recycle(b)
			d.drop(dDropClosed, n)
		}
		d.putScratch(s)
		return 0
	}
	for i, node := range s.nodes {
		b := s.groups[i]
		n := len(b.jobs) // before the send: the worker owns b afterwards
		select {
		case d.queues[node.ID] <- b:
			accepted += n
			d.stats.accepted.Add(uint64(n))
		default:
			d.traceDropBatch(b, dDropRxQueueFull)
			d.recycle(b) // RX queue overflow: tail drop the group
			d.drop(dDropRxQueueFull, uint64(n))
		}
	}
	d.mu.RUnlock()
	d.putScratch(s)
	return accepted
}

// Results delivers packet outcomes; read until Close's drain completes.
func (d *Driver) Results() <-chan DriverResult { return d.results }

// Stats returns a snapshot of the driver's submission accounting. Each cell
// is read atomically, so it is safe (and exact per counter) while
// submitters and workers run. The DropReasons map is materialized per call.
func (d *Driver) Stats() DriverStats {
	s := DriverStats{
		Accepted: d.stats.accepted.Load(),
		Dropped:  d.stats.dropped.Load(),
	}
	s.DropReasons = make(map[string]uint64, numDriverDropReasons)
	for code := 1; code < int(numDriverDropReasons); code++ {
		if n := d.stats.drops[code].Load(); n > 0 {
			s.DropReasons[driverDropName[code]] = n
		}
	}
	return s
}

// ResetStats zeroes the driver counters. Safe under live submission.
func (d *Driver) ResetStats() {
	d.stats.accepted.Store(0)
	d.stats.dropped.Store(0)
	for code := range d.stats.drops {
		d.stats.drops[code].Store(0)
	}
}

// DriverDropReasonNames returns the stable taxonomy of driver drop reasons,
// in code order — the label set the metrics exposition publishes even
// before a reason has fired.
func DriverDropReasonNames() []string {
	out := make([]string, 0, numDriverDropReasons-1)
	for code := 1; code < int(numDriverDropReasons); code++ {
		out = append(out, driverDropName[code])
	}
	return out
}

// RegisterMetrics publishes the driver's submission counters, per-reason
// drops, and live queue-depth gauges into a registry. Values are read
// atomically (channel lengths via len, which is safe concurrently) at
// scrape time; nothing is added to the per-packet path.
func (d *Driver) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("sailfish_driver_accepted_total", "packets accepted into node RX queues", nil,
		d.stats.accepted.Load)
	reg.CounterFunc("sailfish_driver_dropped_total", "packets dropped at submission", nil,
		d.stats.dropped.Load)
	for code := 1; code < int(numDriverDropReasons); code++ {
		c := &d.stats.drops[code]
		reg.CounterFunc("sailfish_driver_drops_total", "packets dropped at submission by reason",
			metrics.Labels{"reason": driverDropName[code]}, c.Load)
	}
	reg.GaugeFunc("sailfish_driver_queue_capacity", "per-node RX queue capacity in batches", nil,
		func() float64 { return float64(d.depth) })
	for id, q := range d.queues {
		qq := q
		reg.GaugeFunc("sailfish_driver_queue_depth", "node RX queue occupancy in batches",
			metrics.Labels{"node": id}, func() float64 { return float64(len(qq)) })
	}
	reg.GaugeFunc("sailfish_driver_results_backlog", "undrained packet outcomes", nil,
		func() float64 { return float64(len(d.results)) })
}

// Close stops the workers after draining queued packets and closes the
// results channel. Submissions racing Close are rejected (counted as
// driver_closed drops) rather than panicking; Close is idempotent, though
// only the first call waits for the drain.
func (d *Driver) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	// Every submitter that saw closed==false has finished its send (the
	// write lock above waited them out), and every later one rejects, so
	// closing the queues cannot race a send.
	for _, q := range d.queues {
		close(q)
	}
	d.wg.Wait()
	close(d.resultq)
	d.demuxWG.Wait()
	close(d.results)
}
