package main

import (
	"fmt"
	"runtime"
	"time"

	"sailfish/internal/netpkt"
	"sailfish/internal/xgwh"
)

// The traced run. Fixed work throughout — four untraced trials, two traced
// ones, fixed probe counts — so every count it reports repeats exactly for a
// seed. --seconds does not stretch it.
const (
	tracedUntracedTrials = 4
	tracedTrials         = 2
	allocProbeBatches    = 2048
)

// Child span names of one batch, in the order the replay records them.
const (
	childParse = iota
	childRoute
	childObserve
	childGateway
	childDPU
	childX86
	numChildren
)

var childNames = [numChildren]string{"netpkt.parse_front", "lb.route", "heavyhitter.observe",
	"xgwh.process", "xgwdpu.process", "xgw86.fallback"}

// replay is the twin-side state of the traced section.
type replay struct {
	twin  *regionSUT
	ring  *spanRing
	root  uint8
	child [numChildren]uint8
	sc    *xgwh.PacketScratch
	meta  [batchSize]netpkt.FrontMeta
	hash  [batchSize]uint64
	cid   [batchSize]int
	nidx  [batchSize]int
	res   [batchSize]xgwh.ForwardResult
	todo  [batchSize]bool // still needs a lower tier

	packets, hwHits, dpuAttempts, dpuServed, x86 int
	failed                                       int
	hits                                         []uint32 // pool indices XGW-H forwarded, for the gateway probe
}

// batch replays one batch on the twin, layer by layer: one child span covers
// the 32 calls of one layer. The twin is built and driven identically to the
// deployment under test, so its tables hold the same entries, and stateful
// layers (SNAT, meters, heavy hitters) are each driven once per deployment.
func (rp *replay) batch(parent, batchID int32, raws [][]byte, idx []uint32, now time.Time) error {
	r, ring, tw := rp.twin.d.Region, rp.ring, rp.twin
	exp := tw.in.expect
	var firstErr error
	span := func(c int, t0 int64) { ring.add(rp.child[c], parent, batchID, t0, ring.now()) }

	t0 := ring.now()
	for j, raw := range raws {
		if err := netpkt.ParseFront(raw, &rp.meta[j]); err != nil {
			firstErr = err
		}
		rp.hash[j] = rp.meta[j].Flow.FastHash()
	}
	span(childParse, t0)

	t0 = ring.now()
	for j := range raws {
		var err error
		if rp.cid[j], rp.nidx[j], err = r.FrontEnd.Route(rp.meta[j].VNI, rp.hash[j]); err != nil {
			firstErr = err
		}
	}
	span(childRoute, t0)
	if firstErr != nil {
		return fmt.Errorf("twin front end: %w", firstErr)
	}

	if tw.hh != nil {
		t0 = ring.now()
		for j := range raws {
			tw.hh.Observe(rp.cid[j], rp.meta[j].VNI, rp.hash[j], rp.meta[j].Flow.Dst, rp.meta[j].WireLen)
		}
		span(childObserve, t0)
	}

	t0 = ring.now()
	for j, raw := range raws {
		live := r.Clusters[rp.cid[j]].LiveNodes()
		gw := live[rp.nidx[j]%len(live)].GW.(*xgwh.Gateway)
		var err error
		if rp.res[j], err = gw.ProcessPacketWith(rp.sc, raw, now); err != nil {
			firstErr = err
		}
	}
	span(childGateway, t0)
	if firstErr != nil {
		return fmt.Errorf("twin gateway: %w", firstErr)
	}
	lower := 0
	for j := range raws {
		e := exp[idx[j]]
		rp.todo[j] = false
		switch rp.res[j].Action {
		case xgwh.ActionForward:
			rp.hwHits++
			if len(rp.hits) < cap(rp.hits) {
				rp.hits = append(rp.hits, idx[j])
			}
			if e.kind == expectSNAT || rp.res[j].NC != e.nc {
				rp.failed++
			}
		case xgwh.ActionFallback:
			rp.todo[j] = true
			lower++
		default:
			rp.failed++
		}
	}
	rp.packets += len(raws)
	if lower == 0 {
		return nil
	}

	if r.DPU != nil {
		t0 = ring.now()
		for j, raw := range raws {
			if !rp.todo[j] || !rp.res[j].FallbackMiss {
				continue
			}
			rp.dpuAttempts++
			dres, served, err := r.DPU.ProcessOn(int(rp.hash[j]%uint64(r.DPU.Devices())), raw, now)
			if err != nil {
				firstErr = err
			}
			if served {
				rp.dpuServed++
				rp.todo[j] = false
				if e := exp[idx[j]]; e.kind != expectAny || dres.NC != e.nc || !outerOK(dres.Out, raw, e) {
					rp.failed++
				}
			}
		}
		span(childDPU, t0)
		if firstErr != nil {
			return fmt.Errorf("twin DPU: %w", firstErr)
		}
	}

	t0 = ring.now()
	for j, raw := range raws {
		if !rp.todo[j] {
			continue
		}
		rp.x86++
		fres, err := r.Fallback[rp.hash[j]%uint64(len(r.Fallback))].ProcessFallback(raw, now)
		e := exp[idx[j]]
		switch {
		case err != nil:
			rp.failed++
		case e.kind == expectSNAT:
			if !fres.ToInternet || !snatOK(fres.Out, raw) {
				rp.failed++
			}
		case e.kind != expectAny || fres.NC != e.nc || !outerOK(fres.Out, raw, e):
			rp.failed++
		}
	}
	span(childX86, t0)
	return nil
}

// tracedTrial is runTrial with a root span around every batch call on the
// deployment under test and the layer-by-layer replay on its twin. Control-
// plane work is applied to both, outside every span; on the deployment under
// test it is timed as in runTrial, so the two trials' slices compare.
func tracedTrial(s *regionSUT, rp *replay, trial, packets int) (trialResult, error) {
	s.seq = s.in.trialSeq(trial, packets, s.seq)
	res := trialResult{packets: packets}
	churn, ladder := s.name == "region-lpm-churn", s.loop != nil
	fwd, ctl := 0.0, 0.0
	runtime.GC()
	for off := 0; off+batchSize <= packets; off += batchSize {
		s.fillBatch(off)
		batchID := int32(off / batchSize)
		t0 := rp.ring.now()
		s.out = s.d.DeliverVXLANBatchAt(s.raws, s.clock, s.out[:0])
		t1 := rp.ring.now()
		root := rp.ring.add(rp.root, -1, batchID, t0, t1)
		fwd += float64(t1 - t0)
		s.checkBatch(&res)
		rp.twin.clock = s.clock
		if err := rp.batch(root, batchID, s.raws, s.idx, s.clock); err != nil {
			return res, err
		}
		if churn && (off/batchSize)%(churnEvery/batchSize) == churnEvery/batchSize-1 {
			t0 := time.Now()
			err := s.churnStep()
			ctl += float64(time.Since(t0))
			if err != nil {
				return res, err
			}
			if err := rp.twin.churnStep(); err != nil {
				return res, err
			}
		}
		if ladder && (off+batchSize)%ladderCycleEvery == 0 {
			for _, d := range []*regionSUT{s, rp.twin} {
				t0 := time.Now()
				rep := d.loop.RunCycle()
				if d == s {
					ctl += float64(time.Since(t0))
				}
				if rep.Failed > 0 {
					return res, fmt.Errorf("placement cycle %d: %d moves failed", rep.Cycle, rep.Failed)
				}
			}
		}
		if (off/batchSize)%sliceBatches == sliceBatches-1 {
			res.fwdNs, res.ctlNs = append(res.fwdNs, fwd), append(res.ctlNs, ctl)
			fwd, ctl = 0, 0
		}
	}
	return res, nil
}

// poolWalk times the workload's batch calls over the whole pool, the frames
// the window leaves out included: with 65 536 destinations the lookups miss
// every cache the box does not share, so this is where a change in memory
// accesses per lookup shows at full size — and it moves with the neighbours'
// memory traffic, which is why it gates nothing (README, "Noise").
func (p *probeSet) poolWalk(s *regionSUT) error {
	var pool [][]byte
	for i, f := range p.in.frames {
		if p.in.expect[i].kind != expectSNAT {
			pool = append(pool, f)
		}
	}
	bad := 0
	p.timed("bench.pool_ns_per_pkt", batchSize, "ns", len(pool)/batchSize, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			s.clock = s.clock.Add(time.Microsecond)
			s.out = s.d.DeliverVXLANBatchAt(pool[b*batchSize:(b+1)*batchSize], s.clock, s.out[:0])
			for j := range s.out {
				if s.out[j].Err != nil {
					bad++
				}
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("pool walk: %d packets failed", bad)
	}
	return nil
}

// allocProbe counts heap allocations and bytes per packet over a tight loop
// of batch calls with nothing else running between the two readings.
func allocProbe(s *regionSUT, out map[string]metric) {
	s.seq = s.in.trialSeq(0, allocProbeBatches*batchSize, s.seq)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for off := 0; off < len(s.seq); off += batchSize {
		s.fillBatch(off)
		s.out = s.d.DeliverVXLANBatchAt(s.raws, s.clock, s.out[:0])
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(s.seq))
	out["cluster.allocs_per_pkt"] = metric{float64(m1.Mallocs-m0.Mallocs) / n, "count"}
	out["cluster.bytes_per_pkt"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / n, "B"}
}

// runRegionTraced is the traced run of an in-process workload: the layer
// metrics, from spans recorded in this file and layers.go around calls into
// each layer. End-to-end metrics are never taken from here.
func runRegionTraced(spec regionSpec, o options) (outcome, error) {
	in := spec.gen(o.seed)
	base := workloadObservers(spec.name)
	other := observeDaemon
	if base == observeDaemon {
		other = observeNone // buildRegion keeps the heavy hitters the placement loop needs
	}
	var suts [3]*regionSUT // under test, twin, other observer variant
	for i, obs := range []observe{base, base, other} {
		var err error
		if suts[i], _, err = setUpRegion(spec, in, obs); err != nil {
			return outcome{}, err
		}
	}
	s, twin, variant := suts[0], suts[1], suts[2]
	out := make(map[string]metric)
	attempted, failed := 0, 0

	// Untraced trials, the same ones on all three deployments: the baseline
	// the tracing overhead and the observer overhead are measured against.
	var ns, ctl, nsVariant, ctlVariant [][]float64
	var p50, p90, p99, totals []float64
	control := 0.0
	cycles, moves := 0, 0
	for t := 0; t < tracedUntracedTrials; t++ {
		trial := spec.warmTrials + t
		res, err := s.runTrial(trial, spec.trialPackets)
		if err != nil {
			return outcome{}, err
		}
		ns, ctl = append(ns, res.fwdNs), append(ctl, res.ctlNs)
		totals = append(totals, total(res.fwdNs)+total(res.ctlNs))
		p50, p90, p99 = append(p50, res.p50), append(p90, res.p90), append(p99, res.p99)
		control += total(res.ctlNs)
		cycles, moves = cycles+res.cycles, moves+res.moves
		attempted, failed = attempted+res.packets, failed+res.failed
		for i, d := range []*regionSUT{twin, variant} {
			r, err := d.runTrial(trial, spec.trialPackets)
			if err != nil {
				return outcome{}, err
			}
			failed += r.failed
			if i == 1 {
				nsVariant, ctlVariant = append(nsVariant, r.fwdNs), append(ctlVariant, r.ctlNs)
			}
		}
	}
	untraced := p10Trial(ns, ctl)
	out["bench.lat_p50_us"] = metric{p10Fastest(p50), "us"}
	out["bench.lat_p90_us"] = metric{p10Fastest(p90), "us"}
	out["bench.lat_p99_us"] = metric{p10Fastest(p99), "us"}
	out["bench.trial_spread"] = metric{median(totals) / untraced, "ratio"}
	out["controller.update_share"] = metric{control / total(totals), "share"}
	if cycles > 0 {
		out["placement.cycle_us"] = metric{control / float64(cycles) / 1e3, "us"}
		out["placement.moves_per_cycle"] = metric{float64(moves) / float64(cycles), "count"}
	}
	observed, bare := untraced, p10Trial(nsVariant, ctlVariant)
	if base != observeDaemon {
		observed, bare = bare, observed
	}
	out["cluster.observed_overhead_share"] = metric{(observed - bare) / observed, "share"}

	// Traced trials.
	batches := tracedTrials * spec.trialPackets / batchSize
	ring := newSpanRing(batches*(1+numChildren) + 256)
	rp := &replay{twin: twin, ring: ring, root: ring.nameID("cluster.batch"), sc: xgwh.NewPacketScratch(),
		hits: make([]uint32, 0, 16384)}
	for c, n := range childNames {
		rp.child[c] = ring.nameID(n)
	}
	var tiers [4]int
	var tracedNs, tracedCtl [][]float64
	for t := 0; t < tracedTrials; t++ {
		res, err := tracedTrial(s, rp, spec.warmTrials+tracedUntracedTrials+t, spec.trialPackets)
		if err != nil {
			return outcome{}, err
		}
		attempted, failed = attempted+res.packets, failed+res.failed
		tracedNs, tracedCtl = append(tracedNs, res.fwdNs), append(tracedCtl, res.ctlNs)
		for i := range tiers {
			tiers[i] += res.tiers[i]
		}
	}
	failed += rp.failed
	total, self, _ := ring.selfTimes()
	pk := float64(rp.packets)
	rootNs := float64(total[rp.root]) / pk
	out["cluster.batch_ns"] = metric{rootNs, "ns"}
	out["cluster.self_ns"] = metric{float64(self[rp.root]) / pk, "ns"}
	out["cluster.unattributed_share"] = metric{float64(self[rp.root]) / float64(total[rp.root]), "share"}
	out["bench.trace_overhead_share"] = metric{(p10Trial(tracedNs, tracedCtl) - untraced) / untraced, "share"}
	out["xgwh.hit_share"] = metric{float64(tiers[tierHW]) / pk, "share"}
	out["xgw86.share"] = metric{float64(tiers[tierX86]) / pk, "share"}
	served := 0.0
	if rp.dpuAttempts > 0 {
		served = float64(rp.dpuServed) / float64(rp.dpuAttempts)
	}
	out["xgwdpu.served_share"] = metric{served, "share"}
	if tiers[tierHW] != rp.hwHits || tiers[tierDPU] != rp.dpuServed || tiers[tierX86] != rp.x86 {
		return outcome{}, fmt.Errorf("twin diverged from the deployment under test: tiers %v vs hw %d dpu %d x86 %d",
			tiers, rp.hwHits, rp.dpuServed, rp.x86)
	}

	// Layer probes, on deployments the run no longer needs.
	p := newProbeSet(in, ring, out)
	if err := p.tableProbes(twin); err != nil {
		return outcome{}, err
	}
	if err := p.gatewayProbes(twin, rp.hits); err != nil {
		return outcome{}, err
	}
	if err := p.tierProbes(); err != nil {
		return outcome{}, err
	}
	if err := p.observerProbes(); err != nil {
		return outcome{}, err
	}
	allocProbe(s, out)
	if err := p.poolWalk(s); err != nil {
		return outcome{}, err
	}
	n := len(p.frames)
	bad := 0
	p.ns("cluster.process_ns", n, func(lo, hi int) {
		for _, f := range p.frames[lo:hi] {
			s.clock = s.clock.Add(time.Microsecond)
			if _, err := s.d.DeliverVXLANAt(f, s.clock); err != nil {
				bad++
			}
		}
	})
	failed += bad
	if err := p.controlProbes(variant); err != nil {
		return outcome{}, err
	}
	// Every traced run reports every per-layer metric, so each one ends with a
	// short wire section for the gw.* and loadgen.* rows.
	wp, err := wireProbes(o, out, ring)
	if err != nil {
		return outcome{}, err
	}
	attempted, failed = attempted+wp.offered, failed+wp.failed
	if spec.name == "wire-64b" {
		// On the wire workload the bench.* metrics describe the wire itself.
		out["bench.trace_overhead_share"] = metric{(wp.tracedNs - wp.untracedNs) / wp.untracedNs, "share"}
		out["bench.trial_spread"] = metric{wp.trialSpread, "ratio"}
		out["bench.lat_p50_us"] = metric{wp.pacedP50, "us"}
		out["bench.lat_p90_us"] = metric{wp.pacedP90, "us"}
		out["bench.lat_p99_us"] = metric{wp.pacedP99, "us"}
	}
	failed += s.verifyPool()
	attempted += len(in.frames)
	if o.traceOut != "" {
		if err := ring.writeJSONL(o.traceOut); err != nil {
			return outcome{}, err
		}
	}
	return outcome{report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out}, tracedUntracedTrials + tracedTrials, nil}, nil
}
