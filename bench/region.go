package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"sailfish"
	"sailfish/internal/cluster"
	"sailfish/internal/controller"
	"sailfish/internal/heavyhitter"
	"sailfish/internal/netpkt"
	"sailfish/internal/placement"
	"sailfish/internal/slo"
	"sailfish/internal/tables"
	"sailfish/internal/tofino"
	"sailfish/internal/trace"
	"sailfish/internal/xgwh"
)

// regionSpec freezes one in-process workload's shape.
type regionSpec struct {
	name            string
	gen             func(seed int64) *inputs
	trialPackets    int // fixed work per trial
	warmTrials      int // fixed-count warm-up, part of set-up
	trialsPerMinute int // see options.trialCount
}

var regionSpecs = []regionSpec{
	{"region-hit-64b", genHit, 8 * poolFrames, 4, 90},
	{"region-lpm-churn", genChurn, churnTrialPackets, 3, 90},
	{"region-ladder-zipf", genLadder, ladderTrialPackets, 5, 90},
}

// observe selects which observers a deployment is built with.
type observe uint8

const (
	observeNone   observe = iota
	observeHH             // heavy hitters only: the placement loop's signal
	observeDaemon         // as sailfish-gw wires them: trace 1-in-64, heavy hitters, slo.Collector
)

// workloadObservers is what the workload itself runs with; the traced section
// also builds the other variant to price the observers.
func workloadObservers(name string) observe {
	if name == "region-ladder-zipf" {
		return observeDaemon
	}
	return observeNone
}

// regionSUT is one built deployment plus the driver state that must persist
// across trials (virtual clock, churn cursor, scratch slices).
type regionSUT struct {
	name string
	in   *inputs
	d    *sailfish.Deployment
	hh   *heavyhitter.Tracker
	loop *placement.Loop

	clock    time.Time
	churnOps int
	raws     [][]byte
	idx      []uint32
	out      []sailfish.BatchResult
	seq      []uint32
	lat      []float64
}

// Ladder sizing: XGW-H holds about 5 % of the keys, the DPU about 20 %; the
// promotion thresholds are the Zipf(1.0) shares of the ranks at those marks.
const (
	ladderHWKeys  = ladderKeys / 20
	ladderDPUKeys = ladderKeys / 5
)

// engineFor pins the three churn tenants to the three LPM engines.
func engineFor(vni netpkt.VNI, _ bool) xgwh.RouteEngine {
	switch vni {
	case 2000:
		return xgwh.RouteEngineTrie
	case 2001:
		return xgwh.RouteEngineALPM
	}
	return xgwh.RouteEngineMashUp
}

// buildRegion is the timed part of set-up up to (not including) warm-up:
// table build and tenant install, all through the public control plane.
func buildRegion(name string, in *inputs, obs observe) (*regionSUT, error) {
	s := &regionSUT{name: name, in: in, clock: time.Unix(1_700_000_000, 0),
		raws: make([][]byte, batchSize), idx: make([]uint32, batchSize)}
	switch name {
	case "region-hit-64b", "wire-64b":
		// wire-64b builds this only for the traced section's layer probes:
		// the daemon's one gateway, as a one-node region.
		o := sailfish.Options{Clusters: 2, NodesPerCluster: 2, FallbackNodes: 1}
		if name == "wire-64b" {
			o = sailfish.Options{Clusters: 1, NodesPerCluster: 1, FallbackNodes: 1}
		}
		s.d = sailfish.NewDeployment(o)
		for _, t := range in.tenants {
			if _, err := s.d.AddTenant(t.facade(false)); err != nil {
				return nil, fmt.Errorf("add tenant %v: %w", t.vni, err)
			}
		}
	case "region-lpm-churn":
		s.d = sailfish.NewDeployment(sailfish.Options{Clusters: 1, NodesPerCluster: 1, FallbackNodes: 1})
		cl := s.d.Region.Clusters[0]
		for _, n := range cl.AllNodes() {
			n.GW = xgwh.New(xgwh.Config{Chip: tofino.DefaultChip(), Folded: true, SplitPipes: true,
				GatewayIP: gatewayIP, RouteEngineFor: engineFor})
		}
		for e := range in.routes {
			te := controller.TenantEntries{VNI: netpkt.VNI(2000 + e)}
			for _, r := range in.routes[e] {
				te.Routes = append(te.Routes, controller.RouteEntry{VNI: te.VNI, Prefix: r.prefix,
					Route: tables.Route{Scope: tables.ScopeRemote, Tunnel: r.tunnel}})
			}
			if _, err := s.d.Controller.PlaceTenant(te); err != nil {
				return nil, fmt.Errorf("place tenant %v: %w", te.VNI, err)
			}
			for _, r := range in.churn[e][:churnPrefixes/2] {
				if err := cl.InstallRoute(te.VNI, r.prefix, tables.Route{Scope: tables.ScopeRemote, Tunnel: r.tunnel}); err != nil {
					return nil, err
				}
			}
		}
	case "region-ladder-zipf":
		snatEntries := ladderSNATTenants * (ladderSNATVMs + 1)
		s.d = sailfish.NewDeployment(sailfish.Options{Clusters: 1, NodesPerCluster: 2, FallbackNodes: 2, DPUDevices: 2,
			EntryCapacity:    (ladderHWKeys+ladderTenants+snatEntries)*10/9 + 1,
			DPUEntryCapacity: (ladderDPUKeys+ladderTenants)*10/9 + 1})
		for _, t := range in.snatTenants {
			if _, err := s.d.AddTenant(t.facade(true)); err != nil {
				return nil, fmt.Errorf("add SNAT tenant %v: %w", t.vni, err)
			}
			// Internet-bound traffic of a service tenant resolves to the SNAT
			// service on the software path.
			for _, fb := range s.d.Region.Fallback {
				if err := fb.Routes.Insert(t.vni, netip.MustParsePrefix("0.0.0.0/0"), tables.Route{Scope: tables.ScopeService}); err != nil {
					return nil, err
				}
			}
		}
		for _, t := range in.tenants {
			if _, err := s.d.AddTenantSoftware(t.facade(false)); err != nil {
				return nil, fmt.Errorf("add software tenant %v: %w", t.vni, err)
			}
		}
		if obs == observeNone {
			obs = observeHH
		}
	default:
		return nil, fmt.Errorf("unknown in-process workload %q", name)
	}
	r := s.d.Region
	if obs >= observeHH {
		s.hh = heavyhitter.NewTracker(2 * (ladderHWKeys + ladderDPUKeys))
		r.EnableHeavyHitters(s.hh)
	}
	if obs == observeDaemon {
		r.EnableTracing(trace.New(trace.Config{Shards: 8, SlotsPerShard: 4096, SampleShift: 6}))
		col := slo.NewCollector()
		for _, t := range append(append([]tenantSpec(nil), in.tenants...), in.snatTenants...) {
			col.Track(t.vni)
		}
		r.EnableSLO(col)
	}
	if name == "region-ladder-zipf" {
		h := 0.0
		for k := 1; k <= ladderKeys; k++ {
			h += 1 / float64(k)
		}
		share := func(rank int) float64 { return 1 / (float64(rank) * h) }
		s.loop = placement.New(placement.Config{
			CoverageTarget:  1,
			PromoteShare:    share(ladderHWKeys),
			DemoteShare:     share(ladderHWKeys) / 4,
			WarmShare:       share(ladderDPUKeys),
			WarmDemoteShare: share(ladderDPUKeys) / 4,
			ChurnBudget:     256,
			DPUChurnBudget:  1024,
			WindowReset:     true,
			Now:             func() time.Time { return s.clock },
		}, s.d.Controller, s.hh)
	}
	return s, nil
}

// churnStep applies the k-th route update of the churn workload: even steps
// install the prefix entering a sliding window of churnPrefixes/2 installed
// more-specifics, odd steps remove the one leaving it, rotating over the
// three engine tenants — the table size stays put, and after 6·churnPrefixes
// steps (one trial) every table holds what it held before.
func (s *regionSUT) churnStep() error {
	k := s.churnOps
	s.churnOps++
	e := (k / 2) % 3
	j := k / 6
	vni := netpkt.VNI(2000 + e)
	cl := s.d.Region.Clusters[0]
	if k%2 == 0 {
		r := s.in.churn[e][(j+churnPrefixes/2)%churnPrefixes]
		return cl.InstallRoute(vni, r.prefix, tables.Route{Scope: tables.ScopeRemote, Tunnel: r.tunnel})
	}
	if !cl.RemoveRoute(vni, s.in.churn[e][j%churnPrefixes].prefix) {
		return fmt.Errorf("churn: route %v of %v was not installed", s.in.churn[e][j%churnPrefixes].prefix, vni)
	}
	return nil
}

// sliceBatches is the length of one timing slice: 64 batch calls, 2048
// packets — one walk over the trial's window, a millisecond or two.
// Interference on this box comes in bursts (a neighbour on the sibling
// hardware thread) with quiet stretches of a few milliseconds between them; a
// slice is short enough to fall inside one.
const sliceBatches = 64

// trialResult is what one fixed-work trial measured.
type trialResult struct {
	packets int
	failed  int
	// One entry per slice. fwdNs is the wall time of the slice's batch calls,
	// ctlNs that of the control-plane calls that fell to the slice: the route
	// updates between its batches, the residency cycle after it.
	fwdNs, ctlNs []float64
	// cpuShare is the process's CPU time (all threads; the harness's checks
	// included) over the wall time of the same stretch, the whole trial: how
	// many CPUs the work kept busy. Read once per trial: per slice the
	// kernel's accounting is off by whatever steal time it books late.
	cpuShare      float64
	p50, p90, p99 float64 // one batch call, µs, over the whole trial
	cycles, moves int     // ladder: residency cycles run and entries they moved
	tiers         [4]int
}

// fillBatch points raws at the 32 frames s.seq names from off on, opening a
// new SNAT session where the sequence asks for one, and advances the virtual
// clock.
func (s *regionSUT) fillBatch(off int) {
	for j := range s.raws {
		e := s.seq[off+j]
		i := e &^ seqNewSession
		if e&seqNewSession != 0 {
			bumpSourcePort(s.in.frames[i])
		}
		s.raws[j], s.idx[j] = s.in.frames[i], i
	}
	s.clock = s.clock.Add(time.Microsecond)
}

// checkBatch holds the batch just delivered against the oracle: verdict, tier
// and next hop of every packet, and the bytes of the last one, the only
// rewritten packet certain to be intact still.
func (s *regionSUT) checkBatch(res *trialResult) {
	for j := range s.out {
		e := s.in.expect[s.idx[j]]
		tier, ok := verdictOK(&s.out[j], e)
		if ok && j == batchSize-1 {
			ok = bytesOK(&s.out[j].Result, s.raws[j], e)
		}
		res.tiers[tier]++
		if !ok {
			res.failed++
		}
	}
}

// runTrial offers trial number trial's packets in batches of 32, checking
// every result against the oracle between batches, and times them in slices
// of sliceBatches batches. Route churn runs between batches and residency
// cycles between slices; both are timed on their own, call by call, and are
// never inside a latency sample.
func (s *regionSUT) runTrial(trial, packets int) (trialResult, error) {
	s.seq = s.in.trialSeq(trial, packets, s.seq)
	res := trialResult{packets: packets}
	churn, ladder := s.name == "region-lpm-churn", s.loop != nil
	s.lat = s.lat[:0]
	runtime.GC()
	cpu0, wall0 := processCPU(), time.Now()
	for start := 0; start < packets; start += sliceBatches * batchSize {
		end := min(start+sliceBatches*batchSize, packets)
		fwd, ctl := 0.0, 0.0
		for off := start; off+batchSize <= end; off += batchSize {
			s.fillBatch(off)
			t0 := time.Now()
			s.out = s.d.DeliverVXLANBatchAt(s.raws, s.clock, s.out[:0])
			dt := float64(time.Since(t0))
			s.lat = append(s.lat, dt)
			fwd += dt
			s.checkBatch(&res)

			if churn && (off/batchSize)%(churnEvery/batchSize) == churnEvery/batchSize-1 {
				t0 := time.Now()
				err := s.churnStep()
				ctl += float64(time.Since(t0))
				if err != nil {
					return res, err
				}
			}
		}
		if ladder && end%ladderCycleEvery == 0 {
			t0 := time.Now()
			rep := s.loop.RunCycle()
			ctl += float64(time.Since(t0))
			if rep.Failed > 0 {
				return res, fmt.Errorf("placement cycle %d: %d moves failed", rep.Cycle, rep.Failed)
			}
			res.cycles++
			res.moves += rep.Promoted + rep.Demoted + rep.PromotedDPU + rep.DemotedDPU
		}
		res.fwdNs, res.ctlNs = append(res.fwdNs, fwd), append(res.ctlNs, ctl)
	}
	res.cpuShare = (processCPU() - cpu0) / float64(time.Since(wall0))
	res.p50, res.p90, res.p99 = trialPercentiles(s.lat)
	return res, nil
}

// verifyPool pushes every pool frame through the region once, one packet per
// call, so each rewritten packet is still intact when the oracle reads it.
func (s *regionSUT) verifyPool() (failed int) {
	for i, f := range s.in.frames {
		s.clock = s.clock.Add(time.Microsecond)
		r, err := s.d.DeliverVXLANAt(f, s.clock)
		br := cluster.BatchResult{Result: r, Err: err}
		if _, ok := verdictOK(&br, s.in.expect[i]); !ok || !bytesOK(&r, f, s.in.expect[i]) {
			failed++
		}
	}
	return failed
}

// setUpRegion is one complete set-up: build, then the fixed-count warm-up.
// It returns what each stage took, in seconds: the build as one stage, then
// every slice of every warm-up trial as it was — a set-up's first slices run
// on cold caches, and that is part of what it costs — counting the system's
// calls only, not the harness's checks between them. Warm-up trials take the
// trial numbers before the timed ones, so the ladder's rank rotation runs on
// from them.
func setUpRegion(spec regionSpec, in *inputs, obs observe) (*regionSUT, []float64, error) {
	t0 := time.Now()
	s, err := buildRegion(spec.name, in, obs)
	if err != nil {
		return nil, nil, err
	}
	stages := []float64{time.Since(t0).Seconds()}
	for t := 0; t < spec.warmTrials; t++ {
		res, err := s.runTrial(t, spec.trialPackets)
		if err != nil {
			return nil, nil, err
		}
		if res.failed > 0 {
			return nil, nil, fmt.Errorf("warm-up trial %d: %d of %d packets failed the oracle", t, res.failed, res.packets)
		}
		for j := range res.fwdNs {
			stages = append(stages, (res.fwdNs[j]+res.ctlNs[j])/1e9)
		}
	}
	return s, stages, nil
}
