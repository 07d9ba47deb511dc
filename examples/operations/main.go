// Operations walks the §6.1 production lifecycle of a Sailfish region:
// cluster construction (populate → consistency check → probe packets →
// admit traffic), water-level monitoring with sale gating, and the three
// levels of disaster recovery (port, node, cluster).
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"sailfish"
	"sailfish/internal/cluster"
	"sailfish/internal/telemetry"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func main() {
	d := sailfish.NewDeployment(sailfish.Options{Clusters: 1, NodesPerCluster: 3, FallbackNodes: 1})

	// --- Cluster construction ---
	fmt.Println("== cluster construction (§6.1) ==")
	// Stage the cluster: no user traffic until commissioning passes.
	d.Region.SetClusterEnabled(0, false)

	tenant := sailfish.Tenant{
		VNI:    100,
		Prefix: netip.MustParsePrefix("192.168.10.0/24"),
		VMs: map[netip.Addr]netip.Addr{
			addr("192.168.10.2"): addr("10.1.1.11"),
			addr("192.168.10.3"): addr("10.1.1.12"),
		},
	}
	if _, err := d.AddTenant(tenant); err != nil {
		log.Fatal(err)
	}
	raw, _ := sailfish.BuildVXLAN(100, addr("192.168.10.2"), addr("192.168.10.3"),
		sailfish.ProtoUDP, 1000, 2000, nil)

	// Traffic is refused before admission.
	if _, err := d.DeliverVXLANAt(raw, time.Unix(0, 0)); err == cluster.ErrClusterDisabled {
		fmt.Println("staged cluster refuses traffic:", err)
	}

	// Commission: consistency check + probe packets on every node.
	spec := sailfish.ProbeSpecFor(tenant)
	spec.LocalSrc = addr("192.168.10.2")
	rep, err := d.Commission(0, spec)
	if err != nil {
		log.Fatalf("commissioning failed: %v (%+v)", err, rep.ProbeFailures)
	}
	fmt.Printf("commissioned: consistency=%v probes=pass → traffic admitted\n", rep.Consistency.Consistent)
	if _, err := d.DeliverVXLANAt(raw, time.Unix(0, 0)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("first user packet forwarded")

	// --- Water levels ---
	fmt.Println("\n== water levels ==")
	st := d.Stats()
	fmt.Printf("cluster water levels: %.4f (sale open: %v)\n", st.WaterLevels, d.Controller.SaleOpen())

	// --- Disaster recovery drills ---
	fmt.Println("\n== disaster recovery drills (§6.1) ==")
	res, _ := d.DeliverVXLANAt(raw, time.Unix(0, 0))
	fmt.Printf("baseline: node %s port %d\n", res.NodeID, res.EgressPort)

	// Port level: isolate the flow's port; it migrates within the node.
	nodeIdx := 0
	for i, n := range d.Region.Clusters[0].Nodes {
		if n.ID == res.NodeID {
			nodeIdx = i
		}
	}
	fmt.Println(d.Controller.HandlePortAnomaly(0, nodeIdx, res.EgressPort))
	res2, _ := d.DeliverVXLANAt(raw, time.Unix(0, 0))
	fmt.Printf("after port isolation: node %s port %d (same node, new port)\n", res2.NodeID, res2.EgressPort)

	// Node level: offline the node; peers absorb its share.
	fmt.Println(d.Controller.HandleNodeAnomaly(0, nodeIdx))
	res3, _ := d.DeliverVXLANAt(raw, time.Unix(0, 0))
	fmt.Printf("after node offline: served by %s\n", res3.NodeID)

	// Cluster level: lose every main node; fail over to the hot standby.
	for i := range d.Region.Clusters[0].Nodes {
		d.Controller.HandleNodeAnomaly(0, i)
	}
	fmt.Println(d.Controller.HandleClusterAnomaly(0))
	res4, err := d.DeliverVXLANAt(raw, time.Unix(0, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after cluster failover: served by %s (action %v)\n", res4.NodeID, res4.GW.Action)

	// --- Vtrace-style telemetry (§3.1) ---
	fmt.Println("\n== telemetry: localizing loss ==")
	m := telemetry.NewMatcher()
	m.Add(telemetry.Rule{VNI: 100})
	col := telemetry.NewCollector()
	for i, n := range d.Region.Clusters[0].Backup.Nodes {
		n.GW.EnableTelemetry(fmt.Sprintf("xgwh-backup-0-%d", i), m, col)
	}
	// Traffic is currently on the backup cluster (failover above); the
	// next packets emit postcards there.
	d.DeliverVXLANAt(raw, time.Unix(0, 0))
	findings := col.Diagnose([]string{"xgwh-backup-0-2", "nc-10.1.1.12"})
	for _, f := range findings {
		fmt.Println("finding:", f)
	}
	if len(findings) == 0 {
		fmt.Println("no findings (flow healthy)")
	}

	// Recovery: mains repaired, traffic returns.
	for i := range d.Region.Clusters[0].Nodes {
		d.Region.Clusters[0].RestoreNode(i)
	}
	d.Region.FailbackCluster(0)
	res5, _ := d.DeliverVXLANAt(raw, time.Unix(0, 0))
	fmt.Printf("after recovery: served by %s\n", res5.NodeID)
}
