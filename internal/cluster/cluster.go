// Package cluster assembles XGW-H nodes into clusters and clusters into a
// region (Fig. 10, Fig. 12): every node in a cluster carries identical
// tables and shares load behind ECMP; clusters hold disjoint tenant sets
// (horizontal table splitting); each main cluster has a 1:1 hot-standby
// backup (§6.1 disaster recovery); and a small XGW-x86 pool catches the
// fallback traffic (§4.2).
package cluster

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sailfish/internal/heavyhitter"
	"sailfish/internal/lb"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/slo"
	"sailfish/internal/snat"
	"sailfish/internal/tables"
	"sailfish/internal/telemetry"
	"sailfish/internal/tofino"
	"sailfish/internal/trace"
	"sailfish/internal/xgw86"
	"sailfish/internal/xgwdpu"
	"sailfish/internal/xgwh"
)

// Gateway is the node-facing gateway API the cluster and controller drive.
// *xgwh.Gateway implements it directly; the fault-injection harness
// (internal/faults) wraps it to exercise failure modes on the same code
// paths production takes.
type Gateway interface {
	ProcessPacket(raw []byte, now time.Time) (xgwh.ForwardResult, error)
	InstallRoute(vni netpkt.VNI, p netip.Prefix, r tables.Route) error
	RemoveRoute(vni netpkt.VNI, p netip.Prefix) bool
	GetRoute(vni netpkt.VNI, p netip.Prefix) (tables.Route, bool)
	InstallVM(vni netpkt.VNI, vm, nc netip.Addr)
	RemoveVM(vni netpkt.VNI, vm netip.Addr) bool
	LookupVM(vni netpkt.VNI, vm netip.Addr) (netip.Addr, bool)
	MarkServiceVNI(vni netpkt.VNI)
	InstallACL(vni netpkt.VNI, r tables.ACLRule)
	InstallShape(vni netpkt.VNI, bytesPerSec, burstBytes float64)
	SetTenantGeneration(vni netpkt.VNI, gen uint64)
	TenantGeneration(vni netpkt.VNI) uint64
	RouteCount() int
	VMCount() int
	Stats() xgwh.Stats
	EnableTelemetry(deviceID string, m *telemetry.Matcher, c *telemetry.Collector)
	EnableTracing(rec *trace.Recorder, device string)
	ALPMRouteStats() (xgwh.ALPMStats, bool)
}

// Errors returned by region operations.
var (
	ErrNoLiveNodes  = errors.New("cluster: no live nodes")
	ErrOverCapacity = errors.New("cluster: entry capacity exceeded")
)

// Config shapes a region's clusters.
type Config struct {
	// NodesPerCluster is the XGW-H count per cluster (ECMP width).
	NodesPerCluster int
	// EntryCapacity is the per-node entry budget (routes + VM mappings)
	// under the fully compressed layout.
	EntryCapacity int
	// GatewayIP is the cluster VIP used as outer source on rewrites.
	GatewayIP netip.Addr
	// Chip configures each node's ASIC.
	Chip tofino.ChipConfig
	// ALPMRoutes selects the hardware ALPM routing engine on every node.
	ALPMRoutes bool
	// DPUDevices, when > 0, attaches a SmartNIC/DPU middle tier of that
	// many devices between the XGW-H clusters and the x86 pool: packets
	// that miss the hardware tables get one warm-table lookup there before
	// falling through to XGW-x86. Zero keeps the classic two-tier region.
	DPUDevices int
	// DPUEntryCapacity is the per-device warm-set budget; zero takes the
	// xgwdpu default (well above the hardware EntryCapacity).
	DPUEntryCapacity int
}

// DefaultConfig returns a production-shaped cluster config: the paper's
// "ten XGW-Hs for major traffic processing" per region, with the entry
// capacity the Table 3 layout supports.
func DefaultConfig() Config {
	return Config{
		NodesPerCluster: 4,
		EntryCapacity:   2_000_000,
		GatewayIP:       netip.MustParseAddr("10.255.0.1"),
		Chip:            tofino.DefaultChip(),
	}
}

// PortsPerNode is the front-panel port count used for port-level disaster
// recovery accounting (half a folded chip's ports face the fabric).
const PortsPerNode = 32

// Node is one XGW-H box.
type Node struct {
	ID      string
	GW      Gateway
	Healthy bool
	// PortHealthy tracks front-panel ports; a port with abnormal jitter
	// or persistent loss is isolated and its flows migrate to the
	// remaining ports (§6.1 port-level disaster recovery). Mutate it via
	// FailPort/RestorePort, which maintain the live-port cache.
	PortHealthy [PortsPerNode]bool

	// livePorts caches the indices of healthy ports in ascending order so
	// the per-packet egress pick is one modulo and one index instead of a
	// 32-entry scan. Maintained by FailPort/RestorePort.
	livePorts [PortsPerNode]uint8
	nLive     int

	// trDev is the node's interned device id in the region's flight
	// recorder; set by Region.EnableTracing, 0 when tracing is off.
	trDev uint16

	// mu serializes gateway entry for concurrent lanes when the gateway is
	// not a bare *xgwh.Gateway (fault-injection wrappers keep the embedded
	// single-threaded scratch). The serial single-goroutine paths never
	// take it.
	mu sync.Mutex
}

// rebuildPortCache recomputes the healthy-port index cache.
func (n *Node) rebuildPortCache() {
	n.nLive = 0
	for i, ok := range n.PortHealthy {
		if ok {
			n.livePorts[n.nLive] = uint8(i)
			n.nLive++
		}
	}
}

// LivePorts returns the number of healthy ports.
func (n *Node) LivePorts() int { return n.nLive }

// PickPort selects the egress port for a flow hash among healthy ports,
// reporting false when every port is isolated.
func (n *Node) PickPort(hash uint64) (int, bool) {
	if n.nLive == 0 {
		return 0, false
	}
	return int(n.livePorts[hash%uint64(n.nLive)]), true
}

// FailPort isolates one port.
func (n *Node) FailPort(port int) {
	if port >= 0 && port < PortsPerNode {
		n.PortHealthy[port] = false
		n.rebuildPortCache()
	}
}

// RestorePort brings a port back.
func (n *Node) RestorePort(port int) {
	if port >= 0 && port < PortsPerNode {
		n.PortHealthy[port] = true
		n.rebuildPortCache()
	}
}

// CapacityFraction is the node's usable throughput share given isolated
// ports.
func (n *Node) CapacityFraction() float64 {
	return float64(n.LivePorts()) / float64(PortsPerNode)
}

// Cluster is a set of nodes sharing identical tables plus its hot-standby
// backup.
type Cluster struct {
	ID    int
	Nodes []*Node
	// Backup is the 1:1 standby cluster, holding the same entries.
	Backup *Cluster

	cfg     Config
	entries int
	tenants map[netpkt.VNI]int // per-tenant entry counts

	// live caches the healthy-node set so the per-packet path does not
	// rebuild a slice; FailNode/RestoreNode invalidate it.
	live []*Node
}

// newCluster builds a cluster of cfg.NodesPerCluster healthy nodes.
func newCluster(id int, cfg Config, backup bool) *Cluster {
	c := &Cluster{ID: id, cfg: cfg, tenants: make(map[netpkt.VNI]int)}
	role := "main"
	if backup {
		role = "backup"
	}
	for i := 0; i < cfg.NodesPerCluster; i++ {
		gw := xgwh.New(xgwh.Config{
			Chip: cfg.Chip, Folded: true, SplitPipes: true,
			GatewayIP:  cfg.GatewayIP,
			ALPMRoutes: cfg.ALPMRoutes,
		})
		n := &Node{
			ID:      fmt.Sprintf("xgwh-%s-%d-%d", role, id, i),
			GW:      gw,
			Healthy: true,
		}
		for p := range n.PortHealthy {
			n.PortHealthy[p] = true
		}
		n.rebuildPortCache()
		c.Nodes = append(c.Nodes, n)
	}
	c.rebuildLiveCache()
	return c
}

// EntryCount returns installed entries (routes + VM mappings).
func (c *Cluster) EntryCount() int { return c.entries }

// WaterLevel returns entries over per-node capacity — the metric the
// controller monitors before "closing the sale of the cluster's resources"
// (§6.1).
func (c *Cluster) WaterLevel() float64 {
	return float64(c.entries) / float64(c.cfg.EntryCapacity)
}

// Tenants returns the VNIs resident on this cluster.
func (c *Cluster) Tenants() []netpkt.VNI {
	out := make([]netpkt.VNI, 0, len(c.tenants))
	for v := range c.tenants {
		out = append(out, v)
	}
	return out
}

// HasTenant reports whether the VNI's entries live here.
func (c *Cluster) HasTenant(vni netpkt.VNI) bool { return c.tenants[vni] > 0 }

// AllNodes returns every replica of the cluster's tables: the main nodes
// followed by the backup's (when present). This is the set a table push must
// reach to keep the 1:1 hot standby in lockstep.
func (c *Cluster) AllNodes() []*Node {
	out := append([]*Node(nil), c.Nodes...)
	if c.Backup != nil {
		out = append(out, c.Backup.Nodes...)
	}
	return out
}

// Capacity returns the per-node entry budget.
func (c *Cluster) Capacity() int { return c.cfg.EntryCapacity }

// AccountEntries records n intent entries for the tenant in the cluster's
// (and its backup's) bookkeeping without touching any gateway — the
// controller's per-node push path installs entries itself and accounts the
// batch once it is committed. Negative n releases entries.
func (c *Cluster) AccountEntries(vni netpkt.VNI, n int) error {
	if n > 0 && c.entries+n > c.cfg.EntryCapacity {
		return ErrOverCapacity
	}
	c.entries += n
	if c.entries < 0 {
		c.entries = 0
	}
	if t := c.tenants[vni] + n; t > 0 {
		c.tenants[vni] = t
	} else {
		delete(c.tenants, vni)
	}
	if c.Backup != nil {
		return c.Backup.AccountEntries(vni, n)
	}
	return nil
}

// rebuildLiveCache recomputes the healthy-node cache.
func (c *Cluster) rebuildLiveCache() {
	c.live = c.live[:0]
	for _, n := range c.Nodes {
		if n.Healthy {
			c.live = append(c.live, n)
		}
	}
}

// LiveNodes returns the healthy nodes. The returned slice is the cluster's
// cache — treat it as read-only; it is refreshed by FailNode/RestoreNode.
func (c *Cluster) LiveNodes() []*Node { return c.live }

// InstallRoute installs a route on every node (main and backup), keeping
// the cluster's replicas identical.
func (c *Cluster) InstallRoute(vni netpkt.VNI, p netip.Prefix, r tables.Route) error {
	if c.entries >= c.cfg.EntryCapacity {
		return ErrOverCapacity
	}
	for _, n := range c.Nodes {
		if err := n.GW.InstallRoute(vni, p, r); err != nil {
			return err
		}
	}
	c.entries++
	c.tenants[vni]++
	if c.Backup != nil {
		return c.Backup.InstallRoute(vni, p, r)
	}
	return nil
}

// RemoveRoute withdraws a route from every node (main and backup).
func (c *Cluster) RemoveRoute(vni netpkt.VNI, p netip.Prefix) bool {
	any := false
	for _, n := range c.Nodes {
		if n.GW.RemoveRoute(vni, p) {
			any = true
		}
	}
	if any {
		c.entries--
		c.decTenant(vni)
	}
	if c.Backup != nil {
		c.Backup.RemoveRoute(vni, p)
	}
	return any
}

// RemoveVM withdraws a VM mapping from every node (main and backup).
func (c *Cluster) RemoveVM(vni netpkt.VNI, vm netip.Addr) bool {
	any := false
	for _, n := range c.Nodes {
		if n.GW.RemoveVM(vni, vm) {
			any = true
		}
	}
	if any {
		c.entries--
		c.decTenant(vni)
	}
	if c.Backup != nil {
		c.Backup.RemoveVM(vni, vm)
	}
	return any
}

func (c *Cluster) decTenant(vni netpkt.VNI) {
	if n := c.tenants[vni]; n > 1 {
		c.tenants[vni] = n - 1
	} else {
		delete(c.tenants, vni)
	}
}

// InstallVM installs a VM-NC mapping on every node.
func (c *Cluster) InstallVM(vni netpkt.VNI, vm, nc netip.Addr) error {
	if c.entries >= c.cfg.EntryCapacity {
		return ErrOverCapacity
	}
	for _, n := range c.Nodes {
		n.GW.InstallVM(vni, vm, nc)
	}
	c.entries++
	c.tenants[vni]++
	if c.Backup != nil {
		return c.Backup.InstallVM(vni, vm, nc)
	}
	return nil
}

// MarkServiceVNI registers a software-service VNI on every node.
func (c *Cluster) MarkServiceVNI(vni netpkt.VNI) {
	for _, n := range c.Nodes {
		n.GW.MarkServiceVNI(vni)
	}
	if c.Backup != nil {
		c.Backup.MarkServiceVNI(vni)
	}
}

// FailNode marks a node unhealthy (node-level disaster recovery: remaining
// nodes share its load).
func (c *Cluster) FailNode(i int) {
	if i >= 0 && i < len(c.Nodes) {
		c.Nodes[i].Healthy = false
		c.rebuildLiveCache()
	}
}

// RestoreNode brings a node back.
func (c *Cluster) RestoreNode(i int) {
	if i >= 0 && i < len(c.Nodes) {
		c.Nodes[i].Healthy = true
		c.rebuildLiveCache()
	}
}

// Region is a cloud region's gateway deployment: main clusters with 1:1
// backups behind a steering front end, plus the XGW-x86 fallback pool.
type Region struct {
	cfg      Config
	Clusters []*Cluster
	FrontEnd *lb.FrontEnd
	Fallback []*xgw86.Node

	// DPU is the optional SmartNIC middle tier (nil in two-tier regions):
	// hardware table misses get one warm-set lookup here before the x86
	// pool. dpuMu serializes each device's single-threaded scratch when
	// concurrent shard lanes land on it (the serial paths bypass it).
	DPU   *xgwdpu.Pool
	dpuMu []sync.Mutex

	// snatSvc is the region's shared SNAT session store: primary plus
	// replicated standby over the pooled public IPs, attached to every
	// fallback node so sessions survive whichever node a flow hashes to
	// — and, through promotion, survive failover itself.
	snatSvc *snat.Service
	// snatOwner is the cluster whose failover/failback drives SNAT
	// promotion (the cluster fronting the stateful service path).
	snatOwner int

	// activeBackup marks clusters currently served by their backup.
	activeBackup map[int]bool
	// disabled marks clusters not yet commissioned (or decommissioned):
	// user traffic is refused until the controller admits it (§6.1
	// "modify the routes in the upstream devices to admit user traffic").
	disabled map[int]bool
	// degraded marks clusters whose traffic is steered wholesale to the
	// XGW-x86 pool because both main and backup are impaired.
	degraded map[int]bool

	stats regionCounters

	// obs, when set, receives steer-stage latency observations (front parse
	// + steering decision). Set it via EnableStageMetrics before traffic
	// starts — it is read without synchronization on the hot path.
	obs *metrics.StageHistograms

	// tr, when set, is the flight recorder the front end and every wired
	// node emit into; trDev is the front end's interned device id. Like
	// obs, set before traffic via EnableTracing — read unsynchronized.
	tr    *trace.Recorder
	trDev uint16
	// hh, when set, receives one Observe per successfully steered packet —
	// the feed behind the 95/5 HotEntries report. Set via EnableHeavyHitters
	// before traffic.
	hh *heavyhitter.Tracker
	// slo, when set, is the per-tenant SLI collector every lane books packet
	// dispositions into. Set via EnableSLO before traffic — read
	// unsynchronized like the other observers.
	slo *slo.Collector

	// lane0 is the region's built-in serial lane: ProcessPacket and
	// ProcessBatch run on it, booking into r.stats and the region-global
	// observers — exactly the pre-sharding single path. Shard lanes come
	// from NewLane.
	lane0 Lane
	// fbMu serializes each fallback node's single-threaded scratch when
	// concurrent shard lanes complete steered packets there (one mutex per
	// pool node; the serial paths bypass it).
	fbMu []sync.Mutex
}

// EnableStageMetrics attaches the steer-stage latency histogram to the
// region's front-end decision (the parse/pipeline/rewrite stages are
// observed inside each gateway — see xgwh.Gateway.EnableStageMetrics). Call
// before submitting traffic; pass nil to detach.
func (r *Region) EnableStageMetrics(sh *metrics.StageHistograms) { r.obs = sh }

// Front-end drop-reason codes: the interned taxonomy for packets the region
// kills before (or while) handing them to a gateway. Same discipline as the
// xgwh taxonomy — the data plane counts into a fixed array, the names
// materialize only on the slow path.
const (
	fDropNone uint8 = iota
	fDropParseError
	fDropNoRoute
	fDropClusterDisabled
	fDropNoLiveNode
	fDropNoHealthyPort
	fDropFallbackError
	fDropDPUError
	numFrontDropReasons
)

// frontDropName maps a front-end drop code to its stable external name.
var frontDropName = [numFrontDropReasons]string{
	fDropNone:            "",
	fDropParseError:      "parse_error",
	fDropNoRoute:         "no_route",
	fDropClusterDisabled: "cluster_disabled",
	fDropNoLiveNode:      "no_live_node",
	fDropNoHealthyPort:   "no_healthy_port",
	fDropFallbackError:   "fallback_error",
	fDropDPUError:        "dpu_error",
}

// FrontDropReasonNames returns the stable taxonomy of front-end drop
// reasons, in code order.
func FrontDropReasonNames() []string {
	out := make([]string, 0, numFrontDropReasons-1)
	for code := 1; code < int(numFrontDropReasons); code++ {
		out = append(out, frontDropName[code])
	}
	return out
}

// EnableTracing attaches the whole region to a flight recorder: the front
// end, every main and backup gateway, and the fallback pool get interned
// device ids, and each subsystem's drop taxonomy is registered under its
// stage. Call before traffic starts, like every other observer hookup; pass
// nil to detach the front end (nodes keep their last recorder — detaching
// mid-flight is not a supported mode).
func (r *Region) EnableTracing(rec *trace.Recorder) {
	r.tr = rec
	r.lane0.tr = rec
	if rec == nil {
		return
	}
	r.trDev = rec.InternDevice("frontend")
	r.lane0.trDev = r.trDev
	rec.SetReasonNames(trace.StageFront, FrontDropReasonNames())
	for _, c := range r.Clusters {
		for _, half := range []*Cluster{c, c.Backup} {
			if half == nil {
				continue
			}
			for _, n := range half.Nodes {
				n.trDev = rec.InternDevice(n.ID)
				n.GW.EnableTracing(rec, n.ID)
			}
		}
	}
	for i, fb := range r.Fallback {
		fb.EnableTracing(rec, fmt.Sprintf("xgw86-%d", i))
	}
	if r.DPU != nil {
		r.DPU.EnableTracing(rec, "dpu")
	}
}

// EnableHeavyHitters attaches the SpaceSaving tracker every successful
// steering decision reports into. Call before traffic starts.
func (r *Region) EnableHeavyHitters(t *heavyhitter.Tracker) {
	r.hh = t
	r.lane0.hh = t
}

// EnableSLO attaches the per-tenant SLO collector: every lane (the built-in
// serial one and lanes created afterwards with NewLane) books each packet's
// disposition into the tenant's counter cell beside the region's own
// counters. Call before traffic starts and before creating shard lanes;
// pass nil to detach.
func (r *Region) EnableSLO(c *slo.Collector) {
	r.slo = c
	r.lane0.slo = c
}

// ErrClusterDisabled reports traffic steered at a cluster that has not been
// commissioned.
var ErrClusterDisabled = errors.New("cluster: cluster not admitted to service")

// RegionStats aggregates region-level packet accounting.
type RegionStats struct {
	Forwarded uint64
	Fallback  uint64
	// FallbackMiss counts packets that missed the hardware tables (routes
	// or VM mappings not resident in XGW-H) rather than deliberate
	// service-VNI steering — the placement loop's coverage denominator.
	// With a DPU tier attached it splits into DPUServed (misses the warm
	// tier absorbed) and FallbackMissX86 (misses that fell all the way to
	// the pool): FallbackMiss == DPUServed + FallbackMissX86 +
	// FrontDrops["dpu_error"].
	FallbackMiss uint64
	// DPUServed counts hardware misses completed by the DPU middle tier
	// (always zero in two-tier regions).
	DPUServed uint64
	// FallbackMissX86 is the FallbackMiss subset the x86 pool had to carry
	// — the whole of FallbackMiss when no DPU tier is attached.
	FallbackMissX86 uint64
	Dropped         uint64
	NoRoute         uint64
	// Degraded counts packets carried by the XGW-x86 pool because their
	// cluster was in degraded mode (both main and backup impaired).
	Degraded uint64
	// FrontDrops breaks the front end's own kills down by interned reason
	// (parse_error, no_route, cluster_disabled, no_live_node,
	// no_healthy_port, fallback_error).
	FrontDrops map[string]uint64
}

// regionCounters is the live atomic backing store for RegionStats: a lane
// increments its block while Stats(), ResetStats() and metric scrapes read
// it from other goroutines.
type regionCounters struct {
	forwarded       atomic.Uint64
	fallback        atomic.Uint64
	fallbackMiss    atomic.Uint64
	dpuServed       atomic.Uint64
	fallbackMissX86 atomic.Uint64
	dropped         atomic.Uint64
	noRoute         atomic.Uint64
	degraded        atomic.Uint64
	frontDrops      [numFrontDropReasons]atomic.Uint64
}

// NewRegion builds a region with the given number of main clusters (each
// with a backup) and XGW-x86 fallback nodes.
func NewRegion(cfg Config, clusters, fallbackNodes int) *Region {
	if cfg.NodesPerCluster == 0 {
		cfg = DefaultConfig()
	}
	r := &Region{
		cfg:          cfg,
		FrontEnd:     lb.NewFrontEnd(),
		activeBackup: make(map[int]bool),
		disabled:     make(map[int]bool),
		degraded:     make(map[int]bool),
	}
	for i := 0; i < clusters; i++ {
		r.AddCluster()
	}
	// The fallback pool shares one survivable SNAT service over the pooled
	// public IPs: any node can translate any session, and the standby's
	// replicated table keeps established sessions alive across failover.
	var poolIPs []netip.Addr
	for i := 0; i < fallbackNodes; i++ {
		poolIPs = append(poolIPs, netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)}))
	}
	if fallbackNodes > 0 {
		r.snatSvc = snat.NewService(snat.ServiceConfig{Store: snat.Config{PublicIPs: poolIPs}})
	}
	for i := 0; i < fallbackNodes; i++ {
		x86cfg := xgw86.DefaultConfig()
		x86cfg.GatewayIP = cfg.GatewayIP
		x86cfg.PublicIPs = poolIPs
		n := xgw86.NewNode(x86cfg)
		n.AttachSNAT(r.snatSvc)
		r.Fallback = append(r.Fallback, n)
	}
	if cfg.DPUDevices > 0 {
		r.DPU = xgwdpu.NewPool(xgwdpu.Config{
			Devices:       cfg.DPUDevices,
			EntryCapacity: cfg.DPUEntryCapacity,
			GatewayIP:     cfg.GatewayIP,
		})
		r.dpuMu = make([]sync.Mutex, cfg.DPUDevices)
	}
	r.fbMu = make([]sync.Mutex, len(r.Fallback))
	r.lane0 = Lane{r: r, ctr: &r.stats, serial: true}
	return r
}

// SNATService returns the region's shared SNAT session service, or nil when
// the region has no fallback pool. The controller's monitor pumps its
// replication from the health tick.
func (r *Region) SNATService() *snat.Service { return r.snatSvc }

// SetSNATOwner names the cluster whose failover/failback promotes the SNAT
// standby (default cluster 0).
func (r *Region) SetSNATOwner(id int) { r.snatOwner = id }

// AddCluster provisions a new main+backup cluster pair and its ECMP group,
// returning the new cluster.
func (r *Region) AddCluster() *Cluster {
	id := len(r.Clusters)
	c := newCluster(id, r.cfg, false)
	c.Backup = newCluster(id, r.cfg, true)
	r.Clusters = append(r.Clusters, c)
	g := lb.NewECMP(0)
	for i := range c.Nodes {
		g.AddNextHop(i)
	}
	r.FrontEnd.Groups[id] = g
	return c
}

// serving returns the cluster actually carrying traffic for id — the main
// cluster, or its backup after failover.
func (r *Region) serving(id int) *Cluster {
	c := r.Clusters[id]
	if r.activeBackup[id] {
		return c.Backup
	}
	return c
}

// FailoverCluster reroutes a cluster's traffic to its hot-standby backup
// (cluster-level disaster recovery: "any anomaly will alert the controller
// to modify the routes in the upstream devices"). It is idempotent: the
// return value reports whether this call performed the switch, so a
// recovery loop that fires twice does not double-count failovers.
func (r *Region) FailoverCluster(id int) bool {
	if r.activeBackup[id] {
		return false
	}
	r.activeBackup[id] = true
	// The SNAT owner's failover promotes the replicated standby store so
	// established sessions keep translating on the backup path.
	if id == r.snatOwner && r.snatSvc != nil {
		r.snatSvc.Failover()
	}
	return true
}

// FailbackCluster returns traffic to the main cluster — the symmetric
// inverse of FailoverCluster. Idempotent; reports whether this call
// performed the switch.
func (r *Region) FailbackCluster(id int) bool {
	if !r.activeBackup[id] {
		return false
	}
	delete(r.activeBackup, id)
	if id == r.snatOwner && r.snatSvc != nil {
		r.snatSvc.Failback()
	}
	return true
}

// OnBackup reports whether the cluster is being served by its backup.
func (r *Region) OnBackup(id int) bool { return r.activeBackup[id] }

// SetDegraded switches a cluster in or out of degraded mode: with both the
// main and backup clusters impaired, residual traffic is steered wholesale
// to the XGW-x86 pool instead of being dropped (§4.2's software pool as the
// last line of defense). Idempotent; reports whether the call changed the
// mode.
func (r *Region) SetDegraded(id int, on bool) bool {
	if r.degraded[id] == on {
		return false
	}
	if on {
		r.degraded[id] = true
	} else {
		delete(r.degraded, id)
	}
	return true
}

// DegradedCluster reports whether the cluster is in degraded (x86-served)
// mode.
func (r *Region) DegradedCluster(id int) bool { return r.degraded[id] }

// SetClusterEnabled gates user traffic on the cluster. New clusters are
// enabled by default; the commissioning workflow (controller.Commission)
// disables a cluster first, populates and probes it, then re-enables it.
func (r *Region) SetClusterEnabled(id int, enabled bool) {
	if enabled {
		delete(r.disabled, id)
	} else {
		r.disabled[id] = true
	}
}

// ClusterEnabled reports whether the cluster accepts user traffic.
func (r *Region) ClusterEnabled(id int) bool { return !r.disabled[id] }

// Result is the region-level outcome of one packet.
type Result struct {
	ClusterID int
	NodeID    string
	// EgressPort is the front-panel port the flow left through, chosen
	// among the node's healthy ports.
	EgressPort int
	// GW carries the gateway-level result (action, rewritten bytes, NC).
	GW xgwh.ForwardResult
	// ViaFallback marks packets completed by an XGW-x86 node.
	ViaFallback bool
	// FallbackOut is the XGW-x86 result when ViaFallback.
	FallbackOut xgw86.FallbackResult
	// ViaDPU marks hardware misses completed by the DPU middle tier.
	ViaDPU bool
	// DPUOut is the DPU result when ViaDPU.
	DPUOut xgwdpu.ForwardResult
}

// ProcessPacket carries a packet through the region: steering → ECMP →
// XGW-H → (optionally) XGW-x86 fallback. It needs only the packet's VNI and
// flow hash before handing it to a node, as the front-end switches do; they
// are read via the lightweight front parse, and the hash is computed once
// and reused for steering, the node pick, the egress-port pick and both
// fallback picks.
func (r *Region) ProcessPacket(raw []byte, now time.Time) (Result, error) {
	return r.lane0.Process(raw, now)
}

// clusterMemo caches one cluster's mode lookups (disabled, degraded,
// main-or-backup) within a batch, where the control plane is quiesced.
type clusterMemo struct {
	ok        bool
	clusterID int
	disabled  bool
	degraded  bool
	serving   *Cluster
}

// BatchResult is one packet's outcome within a ProcessBatch call.
type BatchResult struct {
	Result Result
	Err    error
}

// ProcessBatch runs a batch of raw packets through the region in arrival
// order, appending one BatchResult per packet to out and returning the
// extended slice. Passing the previous call's slice as out[:0] makes the
// steady state allocation-free; pass nil to let ProcessBatch allocate.
// Region counters are updated exactly as len(raws) ProcessPacket calls
// would.
//
// Batching is where the front-end amortization lives: real traffic arrives
// in per-tenant bursts, so the steering decision (VNI → cluster + ECMP
// group) and the cluster's mode (disabled/degraded/backup) are memoized
// across consecutive same-VNI packets instead of being re-read from the
// shared tables per packet. The memo is sound because delivery and
// control-plane mutation never run concurrently (the quiescence contract
// on Lane); VNIs with an active migration ramp route per flow and bypass
// the memo.
func (r *Region) ProcessBatch(raws [][]byte, now time.Time, out []BatchResult) []BatchResult {
	return r.lane0.ProcessBatch(raws, now, out)
}

// Stats returns a snapshot of the region counters. Each cell is read
// atomically, so the snapshot is exact per counter even while the data path
// is incrementing concurrently.
func (r *Region) Stats() RegionStats {
	return r.stats.snapshot()
}

// ResetStats zeroes the region counters. Safe under live traffic;
// increments racing the reset land on whichever side their cell is visited.
func (r *Region) ResetStats() {
	r.stats.forwarded.Store(0)
	r.stats.fallback.Store(0)
	r.stats.fallbackMiss.Store(0)
	r.stats.dpuServed.Store(0)
	r.stats.fallbackMissX86.Store(0)
	r.stats.dropped.Store(0)
	r.stats.noRoute.Store(0)
	r.stats.degraded.Store(0)
	for i := range r.stats.frontDrops {
		r.stats.frontDrops[i].Store(0)
	}
	if r.DPU != nil {
		r.DPU.ResetStats()
	}
}

// FallbackRatio returns the share of completed packets carried by the
// XGW-x86 pool — the live readout of the paper's 80/20 hardware/software
// split. Zero when nothing has completed.
func (r *Region) FallbackRatio() float64 {
	fwd := float64(r.stats.forwarded.Load() + r.stats.dpuServed.Load())
	fb := float64(r.stats.fallback.Load() + r.stats.degraded.Load())
	if fwd+fb == 0 {
		return 0
	}
	return fb / (fwd + fb)
}

// HardwareCoverage returns the share of route-resolved packets the XGW-H
// clusters served themselves: forwarded / (forwarded + fallback-by-miss).
// Service-VNI steering and degraded-mode traffic are excluded — they belong
// on the software path by design, not because an entry was missing. This is
// the live readout of the paper's 95/5 claim. Zero when nothing resolved.
func (r *Region) HardwareCoverage() float64 {
	fwd := float64(r.stats.forwarded.Load())
	miss := float64(r.stats.fallbackMiss.Load())
	if fwd+miss == 0 {
		return 0
	}
	return fwd / (fwd + miss)
}

// StackCoverage returns the share of route-resolved packets the accelerated
// tiers — XGW-H plus the DPU pool — served between them: (forwarded +
// dpu-served) / (forwarded + fallback-by-miss). In a two-tier region this
// equals HardwareCoverage; with the ladder active it is the three-way
// coverage claim (XGW-H + DPU ≥ 99.9%). Zero when nothing resolved.
func (r *Region) StackCoverage() float64 {
	fwd := float64(r.stats.forwarded.Load())
	dpu := float64(r.stats.dpuServed.Load())
	miss := float64(r.stats.fallbackMiss.Load())
	if fwd+miss == 0 {
		return 0
	}
	return (fwd + dpu) / (fwd + miss)
}

// RegisterMetrics publishes the region's counters and the fallback ratio
// into a live registry. Values are read atomically at scrape time.
func (r *Region) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("sailfish_region_forwarded_total", "packets forwarded by XGW-H nodes", nil,
		r.stats.forwarded.Load)
	reg.CounterFunc("sailfish_region_fallback_total", "packets steered to the XGW-x86 pool", nil,
		r.stats.fallback.Load)
	reg.CounterFunc("sailfish_region_dropped_total", "packets dropped region-wide", nil,
		r.stats.dropped.Load)
	reg.CounterFunc("sailfish_region_noroute_total", "packets with no steering rule", nil,
		r.stats.noRoute.Load)
	reg.CounterFunc("sailfish_region_degraded_total", "packets carried by the pool for degraded clusters", nil,
		r.stats.degraded.Load)
	reg.CounterFunc("sailfish_region_fallback_miss_total", "fallbacks caused by hardware table misses", nil,
		r.stats.fallbackMiss.Load)
	reg.CounterFunc("sailfish_region_fallback_miss_total", "hardware table misses absorbed by the DPU tier",
		metrics.Labels{"tier": "dpu"}, r.stats.dpuServed.Load)
	reg.CounterFunc("sailfish_region_fallback_miss_total", "hardware table misses carried by the x86 pool",
		metrics.Labels{"tier": "x86"}, r.stats.fallbackMissX86.Load)
	reg.GaugeFunc("sailfish_region_fallback_ratio", "fallback share of completed packets", nil,
		r.FallbackRatio)
	reg.GaugeFunc("sailfish_region_hardware_coverage", "share of route-resolved packets served by XGW-H", nil,
		r.HardwareCoverage)
	reg.GaugeFunc("sailfish_region_stack_coverage", "share of route-resolved packets served by XGW-H plus the DPU tier", nil,
		r.StackCoverage)
	for code := 1; code < int(numFrontDropReasons); code++ {
		c := &r.stats.frontDrops[code]
		reg.CounterFunc("sailfish_region_front_drops_total", "front-end drops by reason",
			metrics.Labels{"reason": frontDropName[code]}, c.Load)
	}
	for _, c := range r.Clusters {
		cl := c
		reg.GaugeFunc("sailfish_cluster_water_level", "entries over per-node capacity",
			metrics.Labels{"cluster": fmt.Sprint(cl.ID)}, cl.WaterLevel)
	}
	if r.DPU != nil {
		r.DPU.RegisterMetrics(reg)
	}
}
