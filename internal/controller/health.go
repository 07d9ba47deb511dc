package controller

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/probe"
	"sailfish/internal/telemetry"
)

// The §6.1 disaster-recovery loop: the controller heartbeats every gateway
// node, declares failure after K consecutive missed beats (with hysteresis
// on the way back), and walks the escalation ladder automatically — node
// isolation, then cluster failover to the hot standby, then graceful
// degradation to the XGW-x86 pool when both replicas are impaired — and
// reverses each step (failback) once health returns and a consistency check
// passes.

// HbUnknownVNI is the VNI heartbeats use for the miss-path probe; tenants
// must not be placed on it.
const HbUnknownVNI netpkt.VNI = 0xFFFFFE

// HealthConfig tunes failure detection and the recovery ladder.
type HealthConfig struct {
	// FailAfter is K: consecutive missed beats before a node is declared
	// failed (default 3).
	FailAfter int
	// RecoverAfter is the hysteresis: consecutive clean beats before a
	// failed node is restored (default 2) — a flapping box must not
	// oscillate in and out of service every beat.
	RecoverAfter int
	// LatencyBudgetNs fails beats that answer too slowly — how a hung
	// (responsive but pathologically slow) box is caught (default 1ms).
	LatencyBudgetNs float64
	// FailoverBelow is the live-node fraction under which a cluster's
	// traffic moves to its healthier replica (default 0.5).
	FailoverBelow float64
}

// DefaultHealthConfig returns the production detection policy.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{FailAfter: 3, RecoverAfter: 2, LatencyBudgetNs: 1e6, FailoverBelow: 0.5}
}

func (h HealthConfig) withDefaults() HealthConfig {
	d := DefaultHealthConfig()
	if h.FailAfter <= 0 {
		h.FailAfter = d.FailAfter
	}
	if h.RecoverAfter <= 0 {
		h.RecoverAfter = d.RecoverAfter
	}
	if h.LatencyBudgetNs <= 0 {
		h.LatencyBudgetNs = d.LatencyBudgetNs
	}
	if h.FailoverBelow <= 0 {
		h.FailoverBelow = d.FailoverBelow
	}
	return h
}

// NodeState is the monitor's view of one node.
type NodeState int

const (
	// NodeHealthy: beats arriving.
	NodeHealthy NodeState = iota
	// NodeSuspect: missed beats, below the K threshold.
	NodeSuspect
	// NodeFailed: declared down and isolated.
	NodeFailed
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeHealthy:
		return "healthy"
	case NodeSuspect:
		return "suspect"
	case NodeFailed:
		return "failed"
	}
	return fmt.Sprintf("NodeState(%d)", int(s))
}

// nodeHealth is the monitor's per-node record.
type nodeHealth struct {
	node      *cluster.Node
	owner     *cluster.Cluster // the main or backup cluster holding the node
	clusterID int
	idx       int
	backup    bool

	misses, oks int
	state       NodeState
	downSince   time.Time
}

// Monitor is the health/heartbeat loop. Tick drives one beat round; Start
// runs rounds from a background goroutine. While the monitor is running it
// owns region recovery mutations (failover, degradation, node isolation) —
// other goroutines must not mutate the region or place tenants concurrently,
// the control-plane quiescence contract cluster.Lane documents.
type Monitor struct {
	mu    sync.Mutex
	cfg   HealthConfig
	ctrl  *Controller
	rec   *telemetry.Recovery
	nodes []*nodeHealth
	byID  map[string]*nodeHealth
	// beats caches each cluster's heartbeat suite, keyed by the tenant it
	// exercises.
	beats map[int]beatsCache

	stop chan struct{}
	done chan struct{}

	// Live observability (see metrics.go). The node-state counts and the
	// per-tick snapshot are atomics so scrapes never contend with mu.
	reg      *metrics.Registry
	ticks    atomic.Uint64
	healthyN atomic.Uint64
	suspectN atomic.Uint64
	failedN  atomic.Uint64
	lastSnap atomic.Pointer[TickSnapshot]
}

type beatsCache struct {
	vni    netpkt.VNI
	probes []probe.Probe
}

// NewMonitor attaches a monitor to the controller's region.
func NewMonitor(ctrl *Controller, cfg HealthConfig) *Monitor {
	m := &Monitor{
		cfg:   cfg.withDefaults(),
		ctrl:  ctrl,
		rec:   ctrl.Recovery(),
		byID:  make(map[string]*nodeHealth),
		beats: make(map[int]beatsCache),
	}
	m.refreshTopology()
	return m
}

// refreshTopology picks up clusters added since the last round.
func (m *Monitor) refreshTopology() {
	for _, cl := range m.ctrl.region.Clusters {
		for side, owner := range []*cluster.Cluster{cl, cl.Backup} {
			if owner == nil {
				continue
			}
			for i, n := range owner.Nodes {
				if _, seen := m.byID[n.ID]; seen {
					continue
				}
				nh := &nodeHealth{node: n, owner: owner, clusterID: cl.ID, idx: i, backup: side == 1}
				m.nodes = append(m.nodes, nh)
				m.byID[n.ID] = nh
			}
		}
	}
}

// beatsFor returns the cluster's heartbeat suite: a known-good forward probe
// through a tenant resident on the cluster (when one exists) plus the
// unknown-VNI miss-path probe.
func (m *Monitor) beatsFor(clusterID int) []probe.Probe {
	t, ok := m.ctrl.heartbeatTenant(clusterID)
	want := netpkt.VNI(0)
	if ok {
		want = t.VNI
	}
	if c, hit := m.beats[clusterID]; hit && c.vni == want {
		return c.probes
	}
	spec := probe.Spec{
		LocalVNI:   HbUnknownVNI, // placeholder; filtered below when no tenant
		LocalSrc:   netip.MustParseAddr("192.0.2.1"),
		LocalVM:    netip.MustParseAddr("192.0.2.2"),
		LocalNC:    netip.Addr{},
		UnknownVNI: HbUnknownVNI,
	}
	if ok {
		spec.LocalVNI = t.VNI
		spec.LocalSrc = t.VMs[0].VM
		spec.LocalVM = t.VMs[0].VM
		spec.LocalNC = t.VMs[0].NC
	}
	suite, err := probe.HeartbeatFor(spec)
	if err != nil {
		return nil
	}
	if !ok {
		// No resident tenant: the forward probe has nothing to hit, keep
		// only the miss-path beat.
		kept := suite[:0]
		for _, p := range suite {
			if p.Name == "unknown-vni-to-software" {
				kept = append(kept, p)
			}
		}
		suite = kept
	}
	m.beats[clusterID] = beatsCache{vni: want, probes: suite}
	return suite
}

// heartbeatTenant picks the cluster's heartbeat tenant: the lowest-VNI
// non-service tenant with at least one VM resident on the cluster.
func (c *Controller) heartbeatTenant(clusterID int) (TenantEntries, bool) {
	best := TenantEntries{}
	found := false
	for vni, pt := range c.placed {
		if pt.cluster != clusterID || pt.entries.ServiceVNI || len(pt.entries.VMs) == 0 {
			continue
		}
		if !found || vni < best.VNI {
			best, found = pt.entries, true
		}
	}
	return best, found
}

// Tick runs one heartbeat round at the given instant: probe every node,
// update miss/ok counters, isolate or restore nodes, then take the
// cluster-level failover / degradation / failback decisions.
func (m *Monitor) Tick(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshTopology()

	for _, nh := range m.nodes {
		beats := m.beatsFor(nh.clusterID)
		fails := probe.RunBudget(nh.node.GW, beats, now, m.cfg.LatencyBudgetNs)
		if len(fails) > 0 {
			nh.misses++
			nh.oks = 0
		} else {
			nh.oks++
			nh.misses = 0
		}
		switch nh.state {
		case NodeHealthy, NodeSuspect:
			if nh.misses == 0 {
				nh.state = NodeHealthy
				continue
			}
			nh.state = NodeSuspect
			if nh.misses >= m.cfg.FailAfter {
				nh.state = NodeFailed
				nh.downSince = now
				m.rec.Record(telemetry.RecoveryEvent{
					Time: now, Kind: "detect", Node: nh.node.ID, Cluster: nh.clusterID,
					Detail: fmt.Sprintf("%d consecutive missed beats (%s)", nh.misses, fails[0]),
				})
				nh.owner.FailNode(nh.idx)
				m.rec.Record(telemetry.RecoveryEvent{
					Time: now, Kind: "isolate", Node: nh.node.ID, Cluster: nh.clusterID,
					Detail: "offlined; peers absorb its ECMP share",
				})
			}
		case NodeFailed:
			if nh.oks >= m.cfg.RecoverAfter {
				nh.state = NodeHealthy
				nh.owner.RestoreNode(nh.idx)
				ttr := now.Sub(nh.downSince)
				m.rec.ObserveTTR(ttr)
				m.rec.Record(telemetry.RecoveryEvent{
					Time: now, Kind: "restore", Node: nh.node.ID, Cluster: nh.clusterID,
					Detail: fmt.Sprintf("%d clean beats; back in service after %v", nh.oks, ttr),
				})
			}
		}
	}

	// Pump SNAT replication before the recovery ladder runs: the last
	// journal deltas land on the standby ahead of any promotion this tick
	// performs, shrinking the orphan window to sessions created since the
	// previous tick.
	if svc := m.ctrl.region.SNATService(); svc != nil {
		svc.Sync(now)
	}

	for _, cl := range m.ctrl.region.Clusters {
		m.decideCluster(cl.ID, now)
	}

	m.ticks.Add(1)
	m.publishTickLocked(now)
}

// liveFraction returns the monitor-visible live fraction of one side of a
// cluster.
func (m *Monitor) liveFraction(clusterID int, backup bool) float64 {
	total, live := 0, 0
	for _, nh := range m.nodes {
		if nh.clusterID != clusterID || nh.backup != backup {
			continue
		}
		total++
		if nh.state != NodeFailed {
			live++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(live) / float64(total)
}

// decideCluster walks the cluster-level recovery ladder for one cluster.
func (m *Monitor) decideCluster(id int, now time.Time) {
	r := m.ctrl.region
	mainLive := m.liveFraction(id, false)
	backupLive := m.liveFraction(id, true)
	th := m.cfg.FailoverBelow

	// Rung 3: graceful degradation when both replicas are impaired.
	if mainLive < th && backupLive < th {
		if r.SetDegraded(id, true) {
			m.rec.Record(telemetry.RecoveryEvent{
				Time: now, Kind: "degrade", Cluster: id,
				Detail: fmt.Sprintf("main %.0f%% / backup %.0f%% live; steering to XGW-x86 pool", 100*mainLive, 100*backupLive),
			})
		}
		return
	}
	if r.DegradedCluster(id) && r.SetDegraded(id, false) {
		m.rec.Record(telemetry.RecoveryEvent{
			Time: now, Kind: "undegrade", Cluster: id,
			Detail: fmt.Sprintf("replica recovered (main %.0f%%, backup %.0f%%); leaving x86 pool", 100*mainLive, 100*backupLive),
		})
	}

	// Rung 2: failover to whichever replica is healthy.
	if !r.OnBackup(id) && mainLive < th && backupLive >= th {
		if r.FailoverCluster(id) {
			m.rec.Record(telemetry.RecoveryEvent{
				Time: now, Kind: "failover", Cluster: id,
				Detail: fmt.Sprintf("main %.0f%% live; traffic rerouted to hot-standby backup", 100*mainLive),
			})
		}
		return
	}
	if r.OnBackup(id) && backupLive < th && mainLive >= th {
		// The backup itself degraded while serving; the main side is the
		// healthier replica again.
		m.failback(id, now, "backup impaired")
		return
	}

	// Failback once the main side is fully healthy — but only after a
	// consistency check, and a repair sweep if the check finds drift.
	if r.OnBackup(id) && mainLive == 1 {
		m.failback(id, now, "main fully recovered")
	}
}

// failback returns a cluster to its main side, gated on table consistency.
func (m *Monitor) failback(id int, now time.Time, why string) {
	if rep := m.ctrl.CheckConsistency(id); !rep.Consistent {
		// Repair first; fail back on a later round once the check passes.
		fix := m.ctrl.Reconcile()
		m.rec.AddRepairs(fix.RoutesReinstalled+fix.VMsReinstalled, telemetry.RecoveryEvent{
			Time: now, Kind: "repair", Cluster: id,
			Detail: fmt.Sprintf("pre-failback repair: %d routes, %d VMs on %v", fix.RoutesReinstalled, fix.VMsReinstalled, fix.NodesTouched),
		})
		if rep = m.ctrl.CheckConsistency(id); !rep.Consistent {
			return
		}
	}
	if m.ctrl.region.FailbackCluster(id) {
		m.rec.Record(telemetry.RecoveryEvent{
			Time: now, Kind: "failback", Cluster: id,
			Detail: why + "; traffic returned to main cluster",
		})
	}
}

// State returns the monitor's view of one node.
func (m *Monitor) State(nodeID string) NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if nh, ok := m.byID[nodeID]; ok {
		return nh.state
	}
	return NodeHealthy
}

// States snapshots every node's state.
func (m *Monitor) States() map[string]NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]NodeState, len(m.nodes))
	for _, nh := range m.nodes {
		out[nh.node.ID] = nh.state
	}
	return out
}

// Start runs beat rounds from a background goroutine every interval until
// Stop. Timestamps come from the controller clock, so a virtual clock
// advanced by the test drives detection timelines deterministically even
// though rounds fire on wall-time ticks.
func (m *Monitor) Start(interval time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Tick(m.ctrl.now())
			}
		}
	}(m.stop, m.done)
}

// Stop halts the background loop and waits for it to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
