// Loadtest drives a region through the sharded data plane — flow-hash
// dispatch onto one run-to-completion worker per node's worth of cores, as
// each XGW-H chip is an independent pipeline — with a multi-flow packet
// storm, then reports the achieved rate, the per-node ECMP spread, and the
// behavioral latency distribution of the folded pipeline model.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/shardplane"
	"sailfish/internal/tables"
)

func main() {
	packets := flag.Int("n", 200_000, "packets to push")
	nodes := flag.Int("nodes", 4, "XGW-H nodes in the cluster")
	flag.Parse()

	cfg := cluster.DefaultConfig()
	cfg.NodesPerCluster = *nodes
	region := cluster.NewRegion(cfg, 1, 0)
	c := region.Clusters[0]
	c.InstallRoute(100, netip.MustParsePrefix("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
	c.InstallVM(100, netip.MustParseAddr("192.168.0.5"), netip.MustParseAddr("100.64.0.5"))
	region.FrontEnd.Steering.Assign(100, 0)

	// Distinct flows so ECMP spreads work across nodes.
	flows := make([][]byte, 512)
	for i := range flows {
		b := netpkt.NewSerializeBuffer(128, 256)
		raw, err := (&netpkt.BuildSpec{
			VNI:      100,
			OuterSrc: netip.MustParseAddr("10.1.1.11"),
			OuterDst: netip.MustParseAddr("10.255.0.1"),
			InnerSrc: netip.MustParseAddr("192.168.0.1"),
			InnerDst: netip.MustParseAddr("192.168.0.5"),
			Proto:    netpkt.IPProtocolUDP,
			SrcPort:  uint16(i + 1), DstPort: 80,
			Payload: make([]byte, 64),
		}).Build(b)
		if err != nil {
			log.Fatal(err)
		}
		cp := make([]byte, len(raw))
		copy(cp, raw)
		flows[i] = cp
	}

	// The sink runs on every shard worker at once: per-node counters are
	// atomics in a map fixed before traffic starts.
	perNode := map[string]*atomic.Uint64{}
	for _, n := range c.Nodes {
		perNode[n.ID] = new(atomic.Uint64)
	}
	lat := metrics.NewAtomicHistogram([]float64{2100, 2150, 2200, 2300, 2500})
	plane := shardplane.New(region, shardplane.Config{
		Shards:    *nodes,
		RingSlots: 4096,
		Sink: func(_ int, res cluster.Result, err error) {
			if err != nil {
				log.Fatal(err)
			}
			perNode[res.NodeID].Add(1)
			lat.Observe(res.GW.LatencyNs)
		},
	})

	start := time.Now()
	now := time.Unix(0, 0)
	for i := 0; i < *packets; i++ {
		for !plane.Submit(flows[i%len(flows)], now) {
			runtime.Gosched() // ring full: let the workers drain
		}
	}
	plane.Close()
	elapsed := time.Since(start)

	fmt.Printf("pushed %d packets through %d nodes in %v (%.0f kpps behavioral)\n",
		*packets, *nodes, elapsed.Round(time.Millisecond),
		float64(*packets)/elapsed.Seconds()/1000)
	fmt.Println("per-node spread (ECMP):")
	for _, n := range c.Nodes {
		got := perNode[n.ID].Load()
		fmt.Printf("  %-16s %7d (%.1f%%)\n", n.ID, got, 100*float64(got)/float64(*packets))
	}
	fmt.Printf("modeled pipeline latency: mean %.0f ns, p50 ≤ %.0f ns, p99 ≤ %.0f ns\n",
		lat.Sum()/float64(lat.Count()), lat.Quantile(0.5), lat.Quantile(0.99))
	fmt.Println("(each packet crossed 2 folded pipeline passes; the model's chip does 1.8 Gpps)")
}
