// Command sailfish-gw runs one XGW-H gateway as a real VXLAN-over-UDP
// forwarder: VXLAN datagrams arriving on the listen socket are pushed
// through the gateway's folded-pipeline model, and forwarded packets are
// re-encapsulated and sent over UDP to the destination NC's underlay
// address.
//
// Usage:
//
//	sailfish-gw -config region.json        # serve a config file
//	sailfish-gw -demo                      # self-contained loopback demo
//
// The config maps overlay state (tenants, VMs) and the underlay (NC IP →
// UDP address). See -demo for the wire protocol end to end: the daemon's
// UDP payload is the standard VXLAN header plus the inner Ethernet frame
// (RFC 7348), so any VXLAN-speaking peer can interoperate on the socket.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sailfish/internal/heavyhitter"
	"sailfish/internal/netpkt"
	"sailfish/internal/pcap"
	"sailfish/internal/placement"
	"sailfish/internal/shardplane"
	"sailfish/internal/slo"
	"sailfish/internal/tables"
	"sailfish/internal/telemetry"
	"sailfish/internal/tofino"
	"sailfish/internal/trace"
	"sailfish/internal/xgw86"
	"sailfish/internal/xgwdpu"
	"sailfish/internal/xgwh"
)

// fileConfig is the JSON configuration of one gateway.
type fileConfig struct {
	GatewayIP string            `json:"gatewayIP"`
	Listen    string            `json:"listen"`
	Underlay  map[string]string `json:"underlay"` // NC IP → UDP addr
	Tenants   []tenantConfig    `json:"tenants"`
	// SoftwareTenants are installed only in the embedded XGW-x86 node —
	// the volatile-table half of the §4.2 co-design. Their traffic misses
	// in hardware and completes on the software path.
	SoftwareTenants []tenantConfig `json:"softwareTenants"`
	// Placement, when present, runs the 95/5 residency loop over the
	// software tenants: hot (VNI, DIP) keys are promoted into the hardware
	// gateway and demoted when they cool (see internal/placement).
	Placement *placementConfig `json:"placement,omitempty"`
	// SLO, when present, runs the per-tenant burn-rate evaluator over every
	// configured tenant and serves /slo, /slo/{vni} and /events on the admin
	// plane (see internal/slo).
	SLO *sloConfig `json:"slo,omitempty"`
	// Workers selects the datagram processing model. 0 or 1 (the default)
	// is the single run-to-completion serve loop. N > 1 runs the RSS-style
	// sharded plane: the receive goroutine hashes each datagram's flow onto
	// one of N SPSC rings, each drained by its own run-to-completion worker
	// goroutine — the same dispatch internal/shardplane uses for the
	// region, so a flow's packets always land on one worker and SNAT,
	// trace and heavy-hitter state keep flow affinity. Needs GOMAXPROCS
	// (and cores) > 1 to pay off. Incompatible with the placement stanza:
	// the residency loop mutates gateway tables between datagrams, which
	// is only safe while one goroutine owns the data path.
	Workers int `json:"workers,omitempty"`
}

type tenantConfig struct {
	VNI    uint32            `json:"vni"`
	Prefix string            `json:"prefix"`
	VMs    map[string]string `json:"vms"` // VM IP → NC IP
}

func main() {
	cfgPath := flag.String("config", "", "JSON config file")
	demo := flag.Bool("demo", false, "run the self-contained loopback demo and exit")
	chaos := flag.Bool("chaos", false, "run the seeded disaster-recovery chaos scenario and exit")
	count := flag.Int("n", 3, "demo: packets to send")
	pcapPath := flag.String("pcap", "", "write ingress/egress frames to this pcap file")
	adminAddr := flag.String("admin", "", "admin HTTP listen address (/metrics, /healthz, /debug/pprof); empty disables")
	flag.Parse()

	switch {
	case *chaos:
		if err := runChaos(); err != nil {
			log.Fatal(err)
		}
	case *demo:
		if err := runDemo(*count, *adminAddr); err != nil {
			log.Fatal(err)
		}
	case *cfgPath != "":
		raw, err := os.ReadFile(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
		var fc fileConfig
		if err := json.Unmarshal(raw, &fc); err != nil {
			log.Fatal(err)
		}
		gw, err := newServer(fc)
		if err != nil {
			log.Fatal(err)
		}
		if *pcapPath != "" {
			f, err := os.Create(*pcapPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			gw.pcap = pcap.NewWriter(f)
			log.Printf("sailfish-gw: capturing to %s", *pcapPath)
		}
		if *adminAddr != "" {
			bound, stop, err := startAdmin(*adminAddr, gw, gw.registerMetrics())
			if err != nil {
				log.Fatal(err)
			}
			defer stop() //nolint:errcheck
			log.Printf("sailfish-gw: admin plane on http://%s (/metrics, /healthz, /debug/pprof)", bound)
		}
		log.Printf("sailfish-gw: serving on %s (%d routes, %d VMs)",
			fc.Listen, gw.gw.RouteCount(), gw.gw.VMCount())
		log.Fatal(gw.serve())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// server is the running daemon: a gateway plus its UDP socket and underlay
// address map.
type server struct {
	gw  *xgwh.Gateway
	x86 *xgw86.Node
	// dpu is the optional SmartNIC warm tier between the hardware gateway
	// and the x86 software path (nil unless the placement stanza's dpu
	// sub-stanza enables it). Hardware table misses try it before x86;
	// service-steered traffic (SNAT) skips straight to x86.
	dpu      *xgwdpu.Pool
	conn     *net.UDPConn
	underlay map[netip.Addr]*net.UDPAddr
	buf      [9216]byte
	sbuf     *netpkt.SerializeBuffer
	// pcap, when set, captures every synthesized ingress frame and every
	// rewritten egress frame.
	pcap *pcap.Writer
	// Observability planes, all wired at construction: the flight recorder
	// (both gateways emit into it), the heavy-hitter tracker (fed per
	// datagram from forward), and the Vtrace matcher/collector pair.
	rec       *trace.Recorder
	hh        *heavyhitter.Tracker
	matcher   *telemetry.Matcher
	collector *telemetry.Collector
	// Residency loop (nil unless the config enables placement). Cycles run
	// from the serve goroutine between datagrams.
	loop      *placement.Loop
	loopEvery time.Duration
	lastCycle time.Time
	// SLO evaluation (nil unless the config enables the slo stanza): the
	// collector mirrors every datagram's disposition per VNI, the engine
	// evaluates burn rates on maybeCycle's cadence, and the journal merges
	// alerts with placement and SNAT events.
	sloCol      *slo.Collector
	sloEng      *slo.Engine
	journal     *slo.Journal
	sloEvery    time.Duration
	lastSLOTick time.Time
	// lastSync throttles the SNAT standby replication pump.
	lastSync time.Time
	// Sharded mode (workers > 1): one gwShard per worker and a closed flag
	// the dispatcher flips so workers drain and exit. fbMu serializes the
	// software tiers (their re-encap scratch is single-threaded) in either
	// mode.
	shards []*gwShard
	fbMu   sync.Mutex
	closed atomic.Bool
}

// gwShard is one worker's share of the sharded data plane: a bounded SPSC
// ring fed by the dispatcher and a private gateway scratch, so the hot path
// never crosses a lock except at the x86 fallback tail.
type gwShard struct {
	ring      *shardplane.Ring
	sc        *xgwh.PacketScratch
	accepted  atomic.Uint64 // dispatcher-side
	ringFull  atomic.Uint64 // dispatcher-side
	oversize  atomic.Uint64 // dispatcher-side
	processed atomic.Uint64 // worker-side
}

func newServer(fc fileConfig) (*server, error) {
	gwIP, err := netip.ParseAddr(fc.GatewayIP)
	if err != nil {
		return nil, fmt.Errorf("gatewayIP: %w", err)
	}
	x86cfg := xgw86.DefaultConfig()
	x86cfg.GatewayIP = gwIP
	s := &server{
		gw: xgwh.New(xgwh.Config{
			Chip: tofino.DefaultChip(), Folded: true, SplitPipes: true,
			GatewayIP: gwIP,
		}),
		x86:      xgw86.NewNode(x86cfg),
		underlay: make(map[netip.Addr]*net.UDPAddr),
		sbuf:     netpkt.NewSerializeBuffer(128, 4096),

		// 1-in-64 deterministic flow sampling; drops are always captured.
		rec:       trace.New(trace.Config{Shards: 8, SlotsPerShard: 4096, SampleShift: 6}),
		hh:        heavyhitter.NewTracker(1024),
		matcher:   telemetry.NewMatcher(),
		collector: telemetry.NewCollector(),
	}
	s.gw.EnableTracing(s.rec, "xgwh-0")
	s.x86.EnableTracing(s.rec, "xgw86-0")
	s.gw.EnableTelemetry("xgwh-0", s.matcher, s.collector)
	for nc, addr := range fc.Underlay {
		ip, err := netip.ParseAddr(nc)
		if err != nil {
			return nil, fmt.Errorf("underlay key %q: %w", nc, err)
		}
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("underlay %q: %w", addr, err)
		}
		s.underlay[ip] = ua
	}
	for _, t := range fc.Tenants {
		p, err := netip.ParsePrefix(t.Prefix)
		if err != nil {
			return nil, fmt.Errorf("tenant %d prefix: %w", t.VNI, err)
		}
		if err := s.gw.InstallRoute(netpkt.VNI(t.VNI), p, tables.Route{Scope: tables.ScopeLocal}); err != nil {
			return nil, err
		}
		for vm, nc := range t.VMs {
			vmIP, err := netip.ParseAddr(vm)
			if err != nil {
				return nil, err
			}
			ncIP, err := netip.ParseAddr(nc)
			if err != nil {
				return nil, err
			}
			s.gw.InstallVM(netpkt.VNI(t.VNI), vmIP, ncIP)
		}
	}
	for _, t := range fc.SoftwareTenants {
		p, err := netip.ParsePrefix(t.Prefix)
		if err != nil {
			return nil, fmt.Errorf("software tenant %d prefix: %w", t.VNI, err)
		}
		if err := s.x86.Routes.Insert(netpkt.VNI(t.VNI), p, tables.Route{Scope: tables.ScopeLocal}); err != nil {
			return nil, err
		}
		for vm, nc := range t.VMs {
			vmIP, err := netip.ParseAddr(vm)
			if err != nil {
				return nil, err
			}
			ncIP, err := netip.ParseAddr(nc)
			if err != nil {
				return nil, err
			}
			s.x86.VMNC.Insert(netpkt.VNI(t.VNI), vmIP, ncIP)
		}
	}
	if fc.Workers < 0 {
		return nil, fmt.Errorf("workers: %d (must be >= 0)", fc.Workers)
	}
	if fc.Workers > 1 && fc.Placement != nil {
		return nil, fmt.Errorf("workers: %d is incompatible with the placement stanza: "+
			"the residency loop mutates gateway tables between datagrams, which is only "+
			"safe while one goroutine owns the data path; set workers to 1 or drop placement",
			fc.Workers)
	}
	if fc.Workers > 1 {
		s.shards = make([]*gwShard, fc.Workers)
		for i := range s.shards {
			// Scratch events resolve to the gateway's wired recorder; ring
			// slots hold a full synthesized frame (9216-byte datagram
			// budget plus outer Eth/IP/UDP headroom).
			s.shards[i] = &gwShard{
				ring: shardplane.NewRing(shardRingSlots, shardMaxFrame),
				sc:   xgwh.NewPacketScratch(),
			}
		}
	}
	if fc.Placement != nil {
		if err := s.enablePlacement(*fc.Placement, fc.SoftwareTenants, gwIP); err != nil {
			return nil, err
		}
	}
	if fc.SLO != nil {
		s.enableSLO(*fc.SLO, fc)
	}
	laddr, err := net.ResolveUDPAddr("udp", fc.Listen)
	if err != nil {
		return nil, err
	}
	s.conn, err = net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Sharded-mode ring geometry: slots hold one synthesized frame — the
// 9216-byte datagram budget plus outer Eth/IP/UDP headroom.
const (
	shardRingSlots = 1024
	shardMaxFrame  = 10240
)

// serve is the receive loop. It reads the clock once per datagram, runs the
// between-datagrams control hooks and synthesizes the outer headers, then
// either runs the frame to completion itself (serial mode — the chip
// processes packets one pipeline pass at a time, so a single loop models it
// faithfully while the socket provides backpressure) or, with workers > 1,
// plays the NIC RSS stage: it hashes the frame's flow onto its shard's SPSC
// ring, and one worker goroutine per shard drains its ring run-to-completion
// through a private gateway scratch. The dispatch hash is the flow hash, so
// a flow's packets always land on one worker and per-flow state (SNAT, trace
// sampling, heavy hitters) keeps affinity. A full ring tail-drops the
// datagram, as a NIC RX queue would.
func (s *server) serve() error {
	var sc *xgwh.PacketScratch
	if len(s.shards) == 0 {
		sc = xgwh.NewPacketScratch()
	} else if s.pcap != nil {
		return fmt.Errorf("pcap capture requires the serial data path; set workers to 1")
	}
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.ring.Consume(&s.closed, func(frame []byte, ns int64) {
				// Counted before the emit: whoever has received a datagram
				// sees it in processed.
				sh.processed.Add(1)
				if err := s.forward(sh.sc, frame, time.Unix(0, ns)); err != nil {
					log.Printf("sailfish-gw: %v", err)
				}
			})
		}()
	}
	// The dispatcher is the only producer: closed flips after its last
	// push, then the workers drain their rings and exit.
	defer wg.Wait()
	defer s.closed.Store(true)
	for {
		n, _, err := s.conn.ReadFromUDP(s.buf[:])
		if err != nil {
			return err
		}
		now := time.Now()
		// Placement is gated off in workers mode; there the hook only pumps
		// the SNAT standby sync and SLO ticks, which synchronize themselves.
		s.maybeCycle(now)
		if frame, err := s.synthesizeOuter(s.buf[:n]); err != nil {
			log.Printf("sailfish-gw: %v", err)
		} else if sc == nil {
			s.dispatch(frame, now)
		} else if err := s.forward(sc, frame, now); err != nil {
			log.Printf("sailfish-gw: %v", err)
		}
	}
}

// dispatch pushes one frame onto its flow's shard ring. Unparseable frames
// shard to 0 so the worker books the parse_error drop under the normal
// taxonomy, exactly as internal/shardplane dispatches for the region.
func (s *server) dispatch(frame []byte, now time.Time) {
	sh := s.shards[0]
	var fm netpkt.FrontMeta
	if netpkt.ParseFront(frame, &fm) == nil {
		sh = s.shards[shardplane.ShardIndex(fm.Flow.FastHash(), len(s.shards))]
	}
	switch {
	case len(frame) > sh.ring.MaxPacket():
		sh.oversize.Add(1)
	case sh.ring.Push(frame, now.UnixNano()):
		sh.accepted.Add(1)
	default:
		sh.ringFull.Add(1)
	}
}

// forward runs one synthesized frame to completion on the given scratch —
// serial mode passes the server's, each shard worker its own: XGW-H, then
// for a hardware table miss the DPU warm tier and the XGW-x86 software node,
// booking the SLO disposition on the way, and ends in the one emit tail —
// pcap capture, then the VXLAN payload out to the NC's underlay address.
func (s *server) forward(sc *xgwh.PacketScratch, frame []byte, now time.Time) error {
	if s.pcap != nil {
		if err := s.pcap.WritePacket(now, frame); err != nil {
			return err
		}
	}
	// Feed the heavy-hitter tracker from the front parse, as the region
	// front end does (this daemon is one box, so cluster 0). The tracker
	// locks internally; flow affinity keeps each flow on one worker anyway.
	var fm netpkt.FrontMeta
	vni, flowHash := netpkt.VNI(0), uint64(0)
	if netpkt.ParseFront(frame, &fm) == nil {
		vni, flowHash = fm.VNI, fm.Flow.FastHash()
		s.hh.Observe(0, vni, flowHash, fm.Flow.Dst, fm.WireLen)
	}
	res, err := s.gw.ProcessPacketWith(sc, frame, now)
	if err != nil {
		s.sloDrop(vni)
		return err
	}
	nc, out := res.NC, res.Out
	switch res.Action {
	case xgwh.ActionForward:
		s.sloForward(vni)
	case xgwh.ActionFallback:
		// The software tiers keep single-threaded re-encap scratch that their
		// Out aliases until the next pass: hold the lock through the emit.
		s.fbMu.Lock()
		defer s.fbMu.Unlock()
		if nc, out, err = s.software(frame, vni, flowHash, res.FallbackMiss, now); err != nil {
			return err
		}
	default:
		s.sloDrop(vni)
		return fmt.Errorf("dropped: %s", res.DropReason)
	}
	ua := s.underlay[nc]
	if ua == nil {
		return fmt.Errorf("no underlay address for NC %v", nc)
	}
	if s.pcap != nil {
		if err := s.pcap.WritePacket(now, out); err != nil {
			return err
		}
	}
	payload, err := vxlanPayload(out)
	if err != nil {
		return err
	}
	_, err = s.conn.WriteToUDP(payload, ua)
	return err
}

// software completes a frame the hardware gateway punted. Three-tier ladder:
// a hardware table miss tries the DPU warm tier first, on the device the
// flow hashes to; service-steered traffic (SNAT) skips it, since the
// stateful services live on x86 only. The caller holds fbMu.
func (s *server) software(frame []byte, vni netpkt.VNI, flowHash uint64, miss bool, now time.Time) (netip.Addr, []byte, error) {
	if miss {
		s.sloFallbackMiss(vni)
		if s.dpu != nil {
			dres, served, err := s.dpu.ProcessOn(int(flowHash%uint64(s.dpu.Devices())), frame, now)
			if err != nil {
				s.sloDrop(vni)
				return netip.Addr{}, nil, fmt.Errorf("dpu path: %w", err)
			}
			if served {
				s.sloDPUServed(vni)
				return dres.NC, dres.Out, nil
			}
		}
	}
	// HW/SW co-design: the software node completes the long tail.
	fres, err := s.x86.ProcessFallback(frame, now)
	if err != nil {
		s.sloDrop(vni)
		return netip.Addr{}, nil, fmt.Errorf("software path: %w", err)
	}
	s.sloFallback(vni, miss)
	return fres.NC, fres.Out, nil
}

// synthesizeOuter wraps the datagram payload in the outer headers the
// kernel consumed, so the gateway's parser sees a full frame.
func (s *server) synthesizeOuter(payload []byte) ([]byte, error) {
	if err := netpkt.SerializeLayers(s.sbuf, payload,
		&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
			SrcIP: netip.MustParseAddr("127.0.0.1"),
			DstIP: netip.MustParseAddr("127.0.0.1")},
		&netpkt.UDP{SrcPort: 49152, DstPort: netpkt.VXLANPort},
	); err != nil {
		return nil, err
	}
	return s.sbuf.Bytes(), nil
}

// vxlanPayload strips outer Eth/IP/UDP from a full frame, returning the
// VXLAN header + inner frame for UDP transmission.
func vxlanPayload(frame []byte) ([]byte, error) {
	var eth netpkt.Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return nil, err
	}
	var l4 []byte
	switch eth.EtherType {
	case netpkt.EtherTypeIPv4:
		var ip netpkt.IPv4
		if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
			return nil, err
		}
		l4 = ip.Payload()
	case netpkt.EtherTypeIPv6:
		var ip netpkt.IPv6
		if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
			return nil, err
		}
		l4 = ip.Payload()
	default:
		return nil, netpkt.ErrNotVXLAN
	}
	var udp netpkt.UDP
	if err := udp.DecodeFromBytes(l4); err != nil {
		return nil, err
	}
	return udp.Payload(), nil
}

// --- demo mode ---

// runDemo wires a gateway and two NC listeners on loopback sockets, then
// sends VM-to-VM packets end to end over real UDP. A non-empty adminAddr
// additionally serves the admin plane for the demo's lifetime, so the live
// /metrics view can be watched while packets flow.
func runDemo(count int, adminAddr string) error {
	// NC listeners.
	nc1, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer nc1.Close()
	nc2, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer nc2.Close()

	fc := fileConfig{
		GatewayIP: "10.255.0.1",
		Listen:    "127.0.0.1:0",
		Underlay: map[string]string{
			"10.1.1.11": nc1.LocalAddr().String(),
			"10.1.1.12": nc2.LocalAddr().String(),
		},
		Tenants: []tenantConfig{{
			VNI: 100, Prefix: "192.168.10.0/24",
			VMs: map[string]string{
				"192.168.10.2": "10.1.1.11",
				"192.168.10.3": "10.1.1.12",
			},
		}},
	}
	srv, err := newServer(fc)
	if err != nil {
		return err
	}
	if adminAddr != "" {
		bound, stop, err := startAdmin(adminAddr, srv, srv.registerMetrics())
		if err != nil {
			return err
		}
		defer stop() //nolint:errcheck
		fmt.Printf("admin plane on http://%s\n", bound)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serve() //nolint:errcheck // returns when the socket closes
	}()

	gwAddr := srv.conn.LocalAddr().(*net.UDPAddr)
	fmt.Printf("gateway on %v; NC 10.1.1.11 → %v; NC 10.1.1.12 → %v\n",
		gwAddr, nc1.LocalAddr(), nc2.LocalAddr())

	// A vSwitch client sends VM 192.168.10.2 → VM 192.168.10.3.
	client, err := net.DialUDP("udp", nil, gwAddr)
	if err != nil {
		return err
	}
	defer client.Close()
	sbuf := netpkt.NewSerializeBuffer(64, 512)
	for i := 0; i < count; i++ {
		payload := []byte(fmt.Sprintf("hello-%d", i))
		if err := netpkt.SerializeLayers(sbuf, payload,
			&netpkt.VXLAN{VNI: 100},
			&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
			&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
				SrcIP: netip.MustParseAddr("192.168.10.2"),
				DstIP: netip.MustParseAddr("192.168.10.3")},
			&netpkt.UDP{SrcPort: 5000, DstPort: 6000},
		); err != nil {
			return err
		}
		if _, err := client.Write(sbuf.Bytes()); err != nil {
			return err
		}
	}

	// NC2 hosts the destination VM: it must receive every packet,
	// VXLAN-encapsulated, VNI intact.
	nc2.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	for i := 0; i < count; i++ {
		n, err := nc2.Read(buf)
		if err != nil {
			return fmt.Errorf("NC did not receive packet %d: %w", i, err)
		}
		var vx netpkt.VXLAN
		if err := vx.DecodeFromBytes(buf[:n]); err != nil {
			return err
		}
		var inner netpkt.Ethernet
		if err := inner.DecodeFromBytes(vx.Payload()); err != nil {
			return err
		}
		var ip netpkt.IPv4
		if err := ip.DecodeFromBytes(inner.Payload()); err != nil {
			return err
		}
		var udp netpkt.UDP
		if err := udp.DecodeFromBytes(ip.Payload()); err != nil {
			return err
		}
		fmt.Printf("NC(10.1.1.12) got %v %v→%v payload=%q\n",
			vx.VNI, ip.SrcIP, ip.DstIP, udp.Payload())
	}
	// Stats are atomic snapshots: read them while the serve loop still runs,
	// then shut the socket down.
	st := srv.gw.Stats()
	fmt.Printf("gateway stats: forwarded=%d fallback=%d dropped=%d\n",
		st.Forwarded, st.Fallback, st.Dropped)
	srv.conn.Close()
	<-served
	return nil
}
