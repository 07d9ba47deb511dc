package sailfish

import (
	"net/netip"
	"testing"
	"time"

	"sailfish/internal/netpkt"
	"sailfish/internal/xgwh"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestDeploymentEndToEnd(t *testing.T) {
	d := NewDeployment(Options{Clusters: 2, NodesPerCluster: 2, FallbackNodes: 1})

	// Two tenants, peered as in Fig. 2.
	if _, err := d.AddTenant(Tenant{
		VNI:    100,
		Prefix: netip.MustParsePrefix("192.168.10.0/24"),
		VMs:    map[netip.Addr]netip.Addr{addr("192.168.10.2"): addr("10.1.1.11"), addr("192.168.10.3"): addr("10.1.1.12")},
		Peers:  []Peering{{Prefix: netip.MustParsePrefix("192.168.30.0/24"), PeerVNI: 200}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddTenant(Tenant{
		VNI:    200,
		Prefix: netip.MustParsePrefix("192.168.30.0/24"),
		VMs:    map[netip.Addr]netip.Addr{addr("192.168.30.5"): addr("10.1.1.15")},
	}); err != nil {
		t.Fatal(err)
	}

	// Same-VPC delivery.
	raw, err := BuildVXLAN(100, addr("192.168.10.2"), addr("192.168.10.3"), ProtoTCP, 1234, 80, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.DeliverVXLANAt(raw, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.GW.Action != ActionForward || res.GW.NC != addr("10.1.1.12") {
		t.Fatalf("same-VPC: %+v", res.GW)
	}

	// Cross-VPC through peering: VNI 100 and 200 may live on different
	// clusters; the packet enters via tenant 100's cluster, which holds
	// 100's peer route but not 200's tables. Production handles this by
	// placing peered tenants together or re-steering; here both peer
	// routes resolve because AddTenant installs the peer chain in the
	// tenant's own cluster... verify the fallback-or-forward outcome is
	// sane rather than a silent drop.
	raw, _ = BuildVXLAN(100, addr("192.168.10.2"), addr("192.168.30.5"), ProtoTCP, 1234, 80, nil)
	res, err = d.DeliverVXLANAt(raw, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.GW.Action == ActionDrop {
		t.Fatalf("cross-VPC packet dropped: %+v", res.GW)
	}

	st := d.Stats()
	if st.Clusters != 2 || st.Region.Forwarded == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeploymentSNATTenant(t *testing.T) {
	d := NewDeployment(Options{Clusters: 1, NodesPerCluster: 1, FallbackNodes: 1})
	if _, err := d.AddTenant(Tenant{
		VNI:       300,
		Prefix:    netip.MustParsePrefix("172.16.0.0/24"),
		VMs:       map[netip.Addr]netip.Addr{addr("172.16.0.5"): addr("10.1.1.20")},
		NeedsSNAT: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Internet-bound packet: must take the fallback (SNAT) path.
	raw, _ := BuildVXLAN(300, addr("172.16.0.5"), addr("93.184.216.34"), ProtoTCP, 5000, 443, nil)
	res, err := d.DeliverVXLANAt(raw, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.GW.Action != ActionFallback {
		t.Fatalf("SNAT tenant not steered to software: %+v", res.GW)
	}
	// AddTenant itself installs the tenant's default service route on the
	// software pool, so the packet leaves de-tunneled and translated.
	if !res.ViaFallback || !res.FallbackOut.ToInternet {
		t.Fatalf("Internet-bound packet of a fresh SNAT tenant not translated: %+v (region drops %v)",
			res.FallbackOut, d.Stats().Region.FrontDrops)
	}
}

func TestDeploymentAutoExpand(t *testing.T) {
	d := NewDeployment(Options{Clusters: 1, NodesPerCluster: 1, FallbackNodes: 0,
		EntryCapacity: 4, SafeWaterLevel: 0.5})
	mk := func(vni VNI, ip string) Tenant {
		return Tenant{
			VNI:    vni,
			Prefix: netip.MustParsePrefix("10.0.0.0/24"),
			VMs:    map[netip.Addr]netip.Addr{addr(ip): addr("10.1.1.1")},
		}
	}
	if _, err := d.AddTenant(mk(1, "10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	id, err := d.AddTenant(mk(2, "10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || d.Stats().Clusters != 2 {
		t.Fatalf("expected auto-expansion, got cluster %d of %d", id, d.Stats().Clusters)
	}
}

func TestBuildVXLANParsesBack(t *testing.T) {
	raw, err := BuildVXLAN(7, addr("192.168.0.1"), addr("192.168.0.2"), ProtoUDP, 53, 53, []byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	var p netpkt.Parser
	var pkt netpkt.GatewayPacket
	if err := p.Parse(raw, &pkt); err != nil {
		t.Fatal(err)
	}
	if pkt.VXLAN.VNI != 7 || pkt.InnerDst() != addr("192.168.0.2") {
		t.Fatalf("pkt = %v %v", pkt.VXLAN.VNI, pkt.InnerDst())
	}
}

func TestDeploymentDisasterRecovery(t *testing.T) {
	d := NewDeployment(Options{Clusters: 1, NodesPerCluster: 2, FallbackNodes: 0})
	if _, err := d.AddTenant(Tenant{
		VNI:    100,
		Prefix: netip.MustParsePrefix("192.168.0.0/24"),
		VMs:    map[netip.Addr]netip.Addr{addr("192.168.0.5"): addr("10.1.1.5")},
	}); err != nil {
		t.Fatal(err)
	}
	raw, _ := BuildVXLAN(100, addr("192.168.0.1"), addr("192.168.0.5"), ProtoUDP, 1, 2, nil)

	// Kill the whole main cluster and fail over: the backup serves.
	for i := range d.Region.Clusters[0].Nodes {
		d.Controller.HandleNodeAnomaly(0, i)
	}
	d.Controller.HandleClusterAnomaly(0)
	res, err := d.DeliverVXLANAt(raw, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.GW.Action != xgwh.ActionForward {
		t.Fatalf("backup cluster did not serve: %+v", res.GW)
	}
}

func TestCommissionWorkflowViaFacade(t *testing.T) {
	d := NewDeployment(Options{Clusters: 1, NodesPerCluster: 2, FallbackNodes: 0})
	d.Region.SetClusterEnabled(0, false)
	tn := Tenant{
		VNI:    100,
		Prefix: mustPrefix("192.168.10.0/24"),
		VMs:    map[netipAddr]netipAddr{mustAddr("192.168.10.2"): mustAddr("10.1.1.11")},
	}
	if _, err := d.AddTenant(tn); err != nil {
		t.Fatal(err)
	}
	raw, _ := BuildVXLAN(100, mustAddr("192.168.10.3"), mustAddr("192.168.10.2"), ProtoUDP, 1, 2, nil)
	if _, err := d.DeliverVXLANAt(raw, benchTime); err == nil {
		t.Fatal("staged cluster served traffic")
	}
	spec := ProbeSpecFor(tn)
	spec.LocalSrc = mustAddr("192.168.10.3")
	rep, err := d.Commission(0, spec)
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep.ProbeFailures)
	}
	if !rep.Admitted {
		t.Fatal("not admitted")
	}
	res, err := d.DeliverVXLANAt(raw, benchTime)
	if err != nil || res.GW.Action != ActionForward {
		t.Fatalf("post-commission delivery: %+v %v", res.GW, err)
	}
}
