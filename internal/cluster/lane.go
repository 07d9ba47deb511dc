package cluster

import (
	"slices"
	"time"

	"sailfish/internal/heavyhitter"
	"sailfish/internal/lb"
	"sailfish/internal/netpkt"
	"sailfish/internal/slo"
	"sailfish/internal/trace"
	"sailfish/internal/xgw86"
	"sailfish/internal/xgwdpu"
	"sailfish/internal/xgwh"
)

// Lane is one run-to-completion execution context over the region: the
// steering → XGW-H → fallback pipeline of ProcessPacket, carrying its own
// packet scratch, stats counters and (optionally) its own flight recorder
// and heavy-hitter tracker. The region owns one built-in serial lane backing
// the classic single-goroutine entry points; the sharded plane creates one
// lane per shard and drives them concurrently — per-flow affinity comes from
// the caller sharding by flow hash, and everything a lane touches outside
// its own fields is either read-pure at traffic time or internally
// synchronized (gateway tables, SNAT, counters).
//
// Control-plane quiescence: steering assignments, ECMP groups, cluster modes
// (enabled, degraded, failed over) and node/port health are read without
// synchronization, so they may only change while no lane is carrying
// traffic — as production drains a node before reprogramming it. Stats,
// ResetStats and metric scrapes are atomic and safe at any time.
//
// Hardware gateways are entered through their per-lane PacketScratch, so N
// lanes drive one chip model without serializing. Gateways wrapped by fault
// injectors (anything that is not a *xgwh.Gateway) and the XGW-x86 fallback
// nodes keep their single-threaded scratch, so concurrent lanes take a
// per-node mutex there — fallback is the slow path by design, and chaos
// wrappers are not performance subjects.
type Lane struct {
	r   *Region
	ctr *regionCounters
	sc  *xgwh.PacketScratch
	// serial marks the region's built-in lane: single-goroutine by
	// contract, entering gateways and fallback nodes directly (no locks,
	// gateway-embedded scratch) exactly as the pre-sharding path did.
	serial bool

	tr    *trace.Recorder
	trDev uint16
	hh    *heavyhitter.Tracker
	// hhBuf holds the steered packets of the ProcessBatch call in flight
	// until they are handed to hh under one lock; only that call touches it.
	hhBuf [32]heavyhitter.Observation
	slo   *slo.Collector
}

// NewLane returns an independent lane over the region with its own counters
// and packet scratch, inheriting the region's SLO collector (per-VNI cells
// are internally atomic, so every lane shares one collector). Create every
// lane before traffic starts.
func (r *Region) NewLane() *Lane {
	return &Lane{r: r, ctr: &regionCounters{}, sc: xgwh.NewPacketScratch(), slo: r.slo}
}

// EnableTracing points the lane's events (front-end steering/drops and the
// gateway verdicts processed through this lane's scratch) at rec. The
// recorder must already be wired into the region with Region.EnableTracing —
// that call interns every device and registers each stage's taxonomy, so
// per-shard recorders built in the same order intern identical id tables and
// their tallies merge by summation (trace.MergeDropCounts).
func (ln *Lane) EnableTracing(rec *trace.Recorder) {
	ln.tr = rec
	if rec != nil {
		ln.trDev = rec.InternDevice("frontend")
	}
	if ln.sc != nil {
		ln.sc.SetRecorder(rec)
	}
}

// EnableHeavyHitters attaches the tracker this lane's steering decisions
// report into; per-shard trackers are merged on scrape
// (heavyhitter.Merge). Call before traffic starts.
func (ln *Lane) EnableHeavyHitters(t *heavyhitter.Tracker) { ln.hh = t }

// Stats snapshots the lane's own counters (the built-in lane's are the
// region's). Each cell is read atomically.
func (ln *Lane) Stats() RegionStats { return ln.ctr.snapshot() }

// AddStatsInto accumulates the lane's counters into dst, allocating dst's
// FrontDrops map on first use — the scrape-side merge a sharded plane sums
// its lanes with.
func (ln *Lane) AddStatsInto(dst *RegionStats) {
	if dst.FrontDrops == nil {
		dst.FrontDrops = make(map[string]uint64, numFrontDropReasons-1)
	}
	ln.ctr.addInto(dst)
}

// frontDrop books a front-end drop under its interned reason and emits the
// always-on flight-recorder event. The per-tenant SLO ledger books every
// front-drop reason as tenant loss — including no_route, which the region's
// own ledger counts beside dropped rather than inside it: from the tenant's
// side a packet with no steering rule is a lost packet.
func (ln *Lane) frontDrop(code uint8, flowHash uint64, vni netpkt.VNI, now time.Time) {
	ln.ctr.frontDrops[code].Add(1)
	if s := ln.slo; s != nil {
		s.Drop(vni)
	}
	if tr := ln.tr; tr != nil {
		tr.Record(trace.Event{
			TimeNs:   now.UnixNano(),
			FlowHash: flowHash,
			VNI:      vni,
			Dev:      ln.trDev,
			Stage:    trace.StageFront,
			Verdict:  trace.VerdictDrop,
			Code:     code,
		})
	}
}

// processGW enters a cluster node's gateway. Hardware gateways take the
// lane's scratch (safe concurrently); anything else falls back to the
// node-embedded scratch — directly on the serial lane, under the node mutex
// on shard lanes.
func (ln *Lane) processGW(node *Node, raw []byte, now time.Time) (xgwh.ForwardResult, error) {
	if g, ok := node.GW.(*xgwh.Gateway); ok && ln.sc != nil {
		return g.ProcessPacketWith(ln.sc, raw, now)
	}
	if ln.serial {
		return node.GW.ProcessPacket(raw, now)
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	return node.GW.ProcessPacket(raw, now)
}

// processFallback completes a steered packet on the fallback pool node the
// flow hashes to. XGW-x86 nodes keep a single-threaded reencap scratch, so
// shard lanes serialize per node.
func (ln *Lane) processFallback(fb *xgw86.Node, idx int, raw []byte, now time.Time) (xgw86.FallbackResult, error) {
	if ln.serial {
		return fb.ProcessFallback(raw, now)
	}
	ln.r.fbMu[idx].Lock()
	defer ln.r.fbMu[idx].Unlock()
	return fb.ProcessFallback(raw, now)
}

// processDPU attempts the warm-tier lookup on the DPU device the flow
// hashes to. Devices keep single-threaded scratch like x86 nodes, so shard
// lanes serialize per device.
func (ln *Lane) processDPU(dev int, raw []byte, now time.Time) (xgwdpu.ForwardResult, bool, error) {
	if ln.serial {
		return ln.r.DPU.ProcessOn(dev, raw, now)
	}
	ln.r.dpuMu[dev].Lock()
	defer ln.r.dpuMu[dev].Unlock()
	return ln.r.DPU.ProcessOn(dev, raw, now)
}

// Process carries one packet through the region on this lane as a batch of
// one, so the single-shot and batched paths share one body. Semantics and
// accounting are identical to Region.ProcessPacket — which is this method on
// the region's built-in lane. The batch and its result live on the stack.
func (ln *Lane) Process(raw []byte, now time.Time) (Result, error) {
	raws := [1][]byte{raw}
	var out [1]BatchResult
	ln.ProcessBatch(raws[:], now, out[:0])
	return out[0].Result, out[0].Err
}

// deliver carries a routed packet into its cluster and, when steered there,
// the XGW-x86 fallback pool, building the outcome in *out (overwritten on
// every path, so a batch can point it at a recycled slot). vni is the front
// parse's tenant id, carried along for flight-recorder events.
func (ln *Lane) deliver(out *Result, raw []byte, vni netpkt.VNI, flowHash uint64, clusterID, nodeIdx int, now time.Time, memo *clusterMemo) error {
	*out = Result{}
	r := ln.r
	var disabled, degraded bool
	var c *Cluster
	if memo.ok && memo.clusterID == clusterID {
		disabled, degraded, c = memo.disabled, memo.degraded, memo.serving
	} else {
		disabled = r.disabled[clusterID]
		degraded = r.degraded[clusterID]
		c = r.serving(clusterID)
		*memo = clusterMemo{ok: true, clusterID: clusterID,
			disabled: disabled, degraded: degraded, serving: c}
	}
	if disabled {
		ln.ctr.dropped.Add(1)
		ln.frontDrop(fDropClusterDisabled, flowHash, vni, now)
		return ErrClusterDisabled
	}
	if degraded {
		// Graceful degradation: both main and backup impaired — the
		// XGW-x86 pool carries the cluster's residual traffic.
		out.ClusterID = clusterID
		if len(r.Fallback) == 0 {
			ln.ctr.dropped.Add(1)
			ln.frontDrop(fDropNoLiveNode, flowHash, vni, now)
			return ErrNoLiveNodes
		}
		ln.ctr.degraded.Add(1)
		if s := ln.slo; s != nil {
			s.Degraded(vni)
		}
		fbIdx := int(flowHash % uint64(len(r.Fallback)))
		fres, ferr := ln.processFallback(r.Fallback[fbIdx], fbIdx, raw, now)
		if ferr != nil {
			ln.ctr.dropped.Add(1)
			ln.frontDrop(fDropFallbackError, flowHash, vni, now)
			return ferr
		}
		out.GW.Action = xgwh.ActionFallback
		out.ViaFallback = true
		out.FallbackOut = fres
		return nil
	}
	live := c.LiveNodes()
	if len(live) == 0 {
		ln.ctr.dropped.Add(1)
		ln.frontDrop(fDropNoLiveNode, flowHash, vni, now)
		return ErrNoLiveNodes
	}
	node := live[nodeIdx%len(live)]
	port, ok := node.PickPort(flowHash)
	if !ok {
		ln.ctr.dropped.Add(1)
		ln.frontDrop(fDropNoHealthyPort, flowHash, vni, now)
		return ErrNoLiveNodes
	}
	if tr := ln.tr; tr != nil && tr.Sampled(flowHash) {
		// The steering hop of a sampled flow's timeline: which node the
		// front end picked, before the gateway's own verdict event.
		tr.Record(trace.Event{TimeNs: now.UnixNano(), FlowHash: flowHash,
			VNI: vni, Dev: node.trDev, Stage: trace.StageFront, Verdict: trace.VerdictSteered})
	}
	res, err := ln.processGW(node, raw, now)
	if err != nil {
		return err
	}
	out.ClusterID, out.NodeID, out.EgressPort, out.GW = clusterID, node.ID, port, res
	// The per-tenant SLO ledger mirrors every region counter site exactly
	// (one increment beside each ctr.* add), so the two ledgers reconcile
	// field-for-field — including the shared quirk that a pool error after
	// a booked fallback leaves both fallback and dropped incremented.
	sloCol := ln.slo
	switch res.Action {
	case xgwh.ActionForward:
		ln.ctr.forwarded.Add(1)
		if sloCol != nil {
			sloCol.Forward(vni)
		}
	case xgwh.ActionDrop:
		ln.ctr.dropped.Add(1)
		if sloCol != nil {
			sloCol.Drop(vni)
		}
	case xgwh.ActionFallback:
		if res.FallbackMiss {
			// A genuine hardware table miss: the residency ladder's middle
			// rung gets the first shot at it. Deliberate service-VNI
			// steering bypasses the DPU — its SNAT state lives on x86.
			ln.ctr.fallbackMiss.Add(1)
			if sloCol != nil {
				sloCol.FallbackMiss(vni)
			}
			if dpu := r.DPU; dpu != nil {
				dev := int(flowHash % uint64(dpu.Devices()))
				dres, served, derr := ln.processDPU(dev, raw, now)
				if derr != nil {
					ln.ctr.dropped.Add(1)
					ln.frontDrop(fDropDPUError, flowHash, vni, now)
					return nil
				}
				if served {
					ln.ctr.dpuServed.Add(1)
					if sloCol != nil {
						sloCol.DPUServed(vni)
					}
					out.ViaDPU = true
					out.DPUOut = dres
					return nil
				}
			}
			ln.ctr.fallbackMissX86.Add(1)
			if sloCol != nil {
				sloCol.FallbackMissX86(vni)
			}
		}
		ln.ctr.fallback.Add(1)
		if sloCol != nil {
			sloCol.Fallback(vni)
		}
		if len(r.Fallback) == 0 {
			return nil
		}
		fbIdx := int(flowHash % uint64(len(r.Fallback)))
		fres, ferr := ln.processFallback(r.Fallback[fbIdx], fbIdx, raw, now)
		if ferr != nil {
			ln.ctr.dropped.Add(1)
			ln.frontDrop(fDropFallbackError, flowHash, vni, now)
			return nil
		}
		out.ViaFallback = true
		out.FallbackOut = fres
	}
	return nil
}

// ProcessBatch runs a batch of raw packets through the lane in arrival
// order, with the same steering/cluster-mode memoization as
// Region.ProcessBatch (which is this method on the region's built-in lane).
// Results are built in place in out, and the heavy-hitter tracker gets the
// batch's steered packets in one hand-off at the end (or whenever hhBuf
// fills) instead of one locked call per packet; arrival order is kept, so
// the tracker ends in the state the per-packet path would leave. With stage
// metrics attached, each steered packet's front parse + steering decision is
// observed into the steer histogram.
func (ln *Lane) ProcessBatch(raws [][]byte, now time.Time, out []BatchResult) []BatchResult {
	r := ln.r
	obs := r.obs
	var steer steerMemo
	var cmemo clusterMemo
	base, nObs := len(out), 0
	out = slices.Grow(out, len(raws))[:base+len(raws)]
	for i, raw := range raws {
		br := &out[base+i]
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		var fm netpkt.FrontMeta
		if err := netpkt.ParseFront(raw, &fm); err != nil {
			ln.ctr.dropped.Add(1)
			ln.frontDrop(fDropParseError, 0, 0, now)
			*br = BatchResult{Err: err}
			continue
		}
		flowHash := fm.Flow.FastHash()
		var clusterID, nodeIdx int
		if steer.ok && steer.vni == fm.VNI {
			ni, ok := steer.group.PickHash(flowHash)
			if !ok {
				// Group emptied out: take the uncached path for the
				// canonical error and stats.
				steer.ok = false
			} else {
				clusterID, nodeIdx = steer.cluster, ni
			}
		}
		if !steer.ok || steer.vni != fm.VNI {
			var err error
			clusterID, nodeIdx, err = r.FrontEnd.Route(fm.VNI, flowHash)
			if err != nil {
				ln.ctr.noRoute.Add(1)
				ln.frontDrop(fDropNoRoute, flowHash, fm.VNI, now)
				*br = BatchResult{Err: err}
				continue
			}
			// Memoize only when another packet follows: a batch of one
			// (Lane.Process) must not pay for a RouteInfo it never reuses.
			steer.ok = false
			if i+1 < len(raws) {
				if cl, g, ramped, err := r.FrontEnd.RouteInfo(fm.VNI); err == nil && !ramped {
					steer = steerMemo{ok: true, vni: fm.VNI, cluster: cl, group: g}
				}
			}
		}
		if obs != nil {
			obs.Steer.Observe(float64(time.Since(t0).Nanoseconds()))
		}
		if ln.hh != nil {
			if nObs == len(ln.hhBuf) {
				ln.hh.ObserveBatch(ln.hhBuf[:])
				nObs = 0
			}
			ln.hhBuf[nObs] = heavyhitter.Observation{Cluster: clusterID, VNI: fm.VNI,
				FlowHash: flowHash, DIP: fm.Flow.Dst, WireLen: fm.WireLen}
			nObs++
		}
		br.Err = ln.deliver(&br.Result, raw, fm.VNI, flowHash, clusterID, nodeIdx, now, &cmemo)
	}
	ln.hh.ObserveBatch(ln.hhBuf[:nObs])
	return out
}

// snapshot reads the counter block into a RegionStats.
func (c *regionCounters) snapshot() RegionStats {
	s := RegionStats{
		Forwarded:       c.forwarded.Load(),
		Fallback:        c.fallback.Load(),
		FallbackMiss:    c.fallbackMiss.Load(),
		DPUServed:       c.dpuServed.Load(),
		FallbackMissX86: c.fallbackMissX86.Load(),
		Dropped:         c.dropped.Load(),
		NoRoute:         c.noRoute.Load(),
		Degraded:        c.degraded.Load(),
		FrontDrops:      make(map[string]uint64, numFrontDropReasons-1),
	}
	for code := 1; code < int(numFrontDropReasons); code++ {
		s.FrontDrops[frontDropName[code]] = c.frontDrops[code].Load()
	}
	return s
}

// addInto accumulates this block's cells into dst — the merge step behind a
// sharded plane's scrape.
func (c *regionCounters) addInto(dst *RegionStats) {
	dst.Forwarded += c.forwarded.Load()
	dst.Fallback += c.fallback.Load()
	dst.FallbackMiss += c.fallbackMiss.Load()
	dst.DPUServed += c.dpuServed.Load()
	dst.FallbackMissX86 += c.fallbackMissX86.Load()
	dst.Dropped += c.dropped.Load()
	dst.NoRoute += c.noRoute.Load()
	dst.Degraded += c.degraded.Load()
	for code := 1; code < int(numFrontDropReasons); code++ {
		dst.FrontDrops[frontDropName[code]] += c.frontDrops[code].Load()
	}
}

// steerMemo caches one VNI's steering decision within a batch.
type steerMemo struct {
	ok      bool
	vni     netpkt.VNI
	cluster int
	group   *lb.ECMP
}
