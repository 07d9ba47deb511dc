// Package sailfish is the public API of the Sailfish reproduction: a
// cloud-scale multi-tenant multi-service gateway accelerated by programmable
// switches (Pan et al., SIGCOMM 2021), rebuilt as a Go library.
//
// A Deployment is one cloud region: XGW-H hardware-gateway clusters (each
// with a 1:1 hot-standby backup) behind a VNI-steering ECMP front end, an
// XGW-x86 software pool for fallback and stateful services, an optional
// SmartNIC/DPU middle tier (Options.DPUDevices) that absorbs warm-entry
// misses before they reach x86, and a central controller that places
// tenants by horizontal table splitting.
//
//	d := sailfish.NewDeployment(sailfish.Options{Clusters: 2, FallbackNodes: 1})
//	d.AddTenant(sailfish.Tenant{
//		VNI:    100,
//		Prefix: netip.MustParsePrefix("192.168.10.0/24"),
//		VMs:    map[netip.Addr]netip.Addr{vmIP: ncIP},
//	})
//	res, _ := d.DeliverVXLAN(rawPacket)
//
// The subsystems are importable directly for finer control:
// internal/xgwh (the gateway and its table-compression planner),
// internal/tofino (the chip model), internal/alpm, internal/digest,
// internal/xgw86, internal/controller, internal/sim.
package sailfish

import (
	"fmt"
	"net/netip"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/controller"
	"sailfish/internal/netpkt"
	"sailfish/internal/probe"
	"sailfish/internal/tables"
	"sailfish/internal/xgwh"
)

// Re-exported identifiers so common use needs only this package.
type (
	// VNI is a 24-bit VXLAN network identifier — one VPC.
	VNI = netpkt.VNI
	// Route is a VXLAN routing entry's action.
	Route = tables.Route
	// ACLRule is a tenant five-tuple filter.
	ACLRule = tables.ACLRule
	// Result is the outcome of one packet through the region.
	Result = cluster.Result
	// BatchResult is one packet's outcome within a batched delivery.
	BatchResult = cluster.BatchResult
)

// Route scopes (Fig. 2).
const (
	ScopeLocal   = tables.ScopeLocal
	ScopePeer    = tables.ScopePeer
	ScopeRemote  = tables.ScopeRemote
	ScopeService = tables.ScopeService
)

// Gateway actions.
const (
	ActionForward  = xgwh.ActionForward
	ActionFallback = xgwh.ActionFallback
	ActionDrop     = xgwh.ActionDrop
)

// Options sizes a Deployment.
type Options struct {
	// Clusters is the initial XGW-H cluster count (each 1:1 backed up).
	Clusters int
	// NodesPerCluster is the ECMP width of each cluster.
	NodesPerCluster int
	// FallbackNodes is the XGW-x86 pool size.
	FallbackNodes int
	// EntryCapacity is the per-node entry budget; 0 uses the Table 3
	// calibrated default.
	EntryCapacity int
	// SafeWaterLevel gates tenant placement (default 0.8).
	SafeWaterLevel float64
	// DPUDevices attaches a SmartNIC/DPU middle tier of that many devices
	// between XGW-H and the x86 pool; 0 keeps the two-tier region.
	DPUDevices int
	// DPUEntryCapacity overrides the DPU pool's entry budget; 0 uses the
	// xgwdpu default when DPUDevices > 0.
	DPUEntryCapacity int
}

// Tenant describes one VPC to install.
type Tenant struct {
	VNI    VNI
	Prefix netip.Prefix
	// VMs maps VM overlay address → hosting NC underlay address.
	VMs map[netip.Addr]netip.Addr
	// Peers lists destination prefixes reachable through VPC peering.
	Peers []Peering
	// NeedsSNAT marks the tenant's VNI as a software-service tag: its
	// Internet-bound traffic takes the XGW-x86 SNAT path.
	NeedsSNAT bool
}

// Peering connects a tenant to a peer VPC for a destination prefix.
type Peering struct {
	Prefix  netip.Prefix
	PeerVNI VNI
}

// Deployment is one region under management.
type Deployment struct {
	Region     *cluster.Region
	Controller *controller.Controller
}

// NewDeployment builds a region and its controller.
func NewDeployment(o Options) *Deployment {
	cfg := cluster.DefaultConfig()
	if o.NodesPerCluster > 0 {
		cfg.NodesPerCluster = o.NodesPerCluster
	}
	if o.EntryCapacity > 0 {
		cfg.EntryCapacity = o.EntryCapacity
	}
	if o.DPUDevices > 0 {
		cfg.DPUDevices = o.DPUDevices
		cfg.DPUEntryCapacity = o.DPUEntryCapacity
	}
	if o.Clusters <= 0 {
		o.Clusters = 1
	}
	region := cluster.NewRegion(cfg, o.Clusters, o.FallbackNodes)
	ctlCfg := controller.DefaultConfig()
	if o.SafeWaterLevel > 0 {
		ctlCfg.SafeWaterLevel = o.SafeWaterLevel
	}
	return &Deployment{
		Region:     region,
		Controller: controller.New(ctlCfg, region),
	}
}

// AddTenant places and installs a tenant: the controller picks a cluster
// (horizontal table splitting), downloads entries to every node including
// backups, verifies consistency, and programs front-end steering. It
// returns the chosen cluster id.
func (d *Deployment) AddTenant(t Tenant) (int, error) {
	te := controller.TenantEntries{VNI: t.VNI, ServiceVNI: t.NeedsSNAT}
	te.Routes = append(te.Routes, controller.RouteEntry{
		VNI: t.VNI, Prefix: t.Prefix, Route: Route{Scope: ScopeLocal},
	})
	for _, p := range t.Peers {
		te.Routes = append(te.Routes, controller.RouteEntry{
			VNI: t.VNI, Prefix: p.Prefix,
			Route: Route{Scope: ScopePeer, NextHopVNI: p.PeerVNI},
		})
	}
	for vm, nc := range t.VMs {
		te.VMs = append(te.VMs, controller.VMEntry{VNI: t.VNI, VM: vm, NC: nc})
		// The software pool also learns the mapping so SNAT responses
		// can find the VM (Fig. 11).
		for _, fb := range d.Region.Fallback {
			fb.VMNC.Insert(t.VNI, vm, nc)
		}
	}
	if err := d.installServiceRoutes(t); err != nil {
		return 0, err
	}
	id, err := d.Controller.PlaceTenant(te)
	if err != nil {
		return 0, err
	}
	if rep := d.Controller.CheckConsistency(id); !rep.Consistent {
		return id, fmt.Errorf("sailfish: post-install consistency check failed on %v", rep.Mismatches)
	}
	return id, nil
}

// AddTenantSoftware places a tenant in residency mode: the XGW-x86 pool
// receives the full desired state (the table of record) and hardware stays
// empty until a placement loop promotes hot entries (§5's 95/5 split). The
// tenant's traffic initially completes entirely on the software path.
func (d *Deployment) AddTenantSoftware(t Tenant) (int, error) {
	te := controller.TenantEntries{VNI: t.VNI, ServiceVNI: t.NeedsSNAT}
	te.Routes = append(te.Routes, controller.RouteEntry{
		VNI: t.VNI, Prefix: t.Prefix, Route: Route{Scope: ScopeLocal},
	})
	for _, p := range t.Peers {
		te.Routes = append(te.Routes, controller.RouteEntry{
			VNI: t.VNI, Prefix: p.Prefix,
			Route: Route{Scope: ScopePeer, NextHopVNI: p.PeerVNI},
		})
	}
	for vm, nc := range t.VMs {
		te.VMs = append(te.VMs, controller.VMEntry{VNI: t.VNI, VM: vm, NC: nc})
	}
	if err := d.installServiceRoutes(t); err != nil {
		return 0, err
	}
	return d.Controller.PlaceTenantSoftware(te)
}

// installServiceRoutes gives a NeedsSNAT tenant its default routes on every
// XGW-x86 node: hardware steers the tenant's traffic to the software pool,
// and there anything outside the tenant's own prefixes is Internet-bound
// and resolves to the SNAT service. Without them it would drop as no_route.
func (d *Deployment) installServiceRoutes(t Tenant) error {
	if !t.NeedsSNAT {
		return nil
	}
	for _, fb := range d.Region.Fallback {
		for _, all := range []string{"0.0.0.0/0", "::/0"} {
			if err := fb.Routes.Insert(t.VNI, netip.MustParsePrefix(all), Route{Scope: ScopeService}); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeliverVXLAN pushes one wire packet through the region using the wall
// clock; use DeliverVXLANAt from simulations.
func (d *Deployment) DeliverVXLAN(raw []byte) (Result, error) {
	return d.Region.ProcessPacket(raw, time.Now())
}

// DeliverVXLANAt pushes one wire packet at an explicit instant.
func (d *Deployment) DeliverVXLANAt(raw []byte, now time.Time) (Result, error) {
	return d.Region.ProcessPacket(raw, now)
}

// DeliverVXLANBatchAt pushes a batch of wire packets at an explicit
// instant, appending one BatchResult per packet to out; pass the previous
// call's slice as out[:0] to keep the steady state allocation-free.
func (d *Deployment) DeliverVXLANBatchAt(raws [][]byte, now time.Time, out []BatchResult) []BatchResult {
	return d.Region.ProcessBatch(raws, now, out)
}

// BuildVXLAN constructs a VXLAN-encapsulated packet for testing and
// examples: srcVM→dstVM inside vni, entering at the region VIP.
func BuildVXLAN(vni VNI, srcVM, dstVM netip.Addr, proto netpkt.IPProtocol, srcPort, dstPort uint16, payload []byte) ([]byte, error) {
	spec := netpkt.BuildSpec{
		VNI:      vni,
		OuterSrc: netip.MustParseAddr("10.1.1.1"),
		OuterDst: netip.MustParseAddr("10.255.0.1"),
		InnerSrc: srcVM, InnerDst: dstVM,
		Proto: proto, SrcPort: srcPort, DstPort: dstPort,
		Payload: payload,
	}
	b := netpkt.NewSerializeBuffer(128, 256+len(payload))
	raw, err := spec.Build(b)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out, nil
}

// Protocols for BuildVXLAN.
const (
	ProtoTCP = netpkt.IPProtocolTCP
	ProtoUDP = netpkt.IPProtocolUDP
)

// Commission runs the §6.1 cluster-construction workflow on a cluster:
// consistency check against controller intent, probe packets on every node
// (main and backup), and admission of user traffic only when both pass.
// The spec names an installed tenant whose entries the probes exercise.
func (d *Deployment) Commission(clusterID int, spec probe.Spec) (controller.CommissionReport, error) {
	return d.Controller.Commission(clusterID, spec)
}

// ProbeSpecFor builds a probe spec from an installed tenant: the first VM
// is the probe target, the second (if any) the source.
func ProbeSpecFor(t Tenant) probe.Spec {
	s := probe.Spec{LocalVNI: t.VNI, UnknownVNI: 0xFFFFFE}
	first := true
	for vm, nc := range t.VMs {
		if first {
			s.LocalVM, s.LocalNC = vm, nc
			s.LocalSrc = vm.Prev() // any in-prefix source works
			first = false
		}
	}
	return s
}

// Stats summarizes the deployment.
type Stats struct {
	Clusters    int
	WaterLevels []float64
	Region      cluster.RegionStats
}

// Stats returns a snapshot.
func (d *Deployment) Stats() Stats {
	return Stats{
		Clusters:    len(d.Region.Clusters),
		WaterLevels: d.Controller.WaterLevels(),
		Region:      d.Region.Stats(),
	}
}
