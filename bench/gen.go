package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"sailfish"
	"sailfish/internal/netpkt"
	"sailfish/internal/traffic"
)

// Everything in this file derives from the seed alone: the same seed gives
// byte-identical frame pools, tenant maps and daemon configs. The system
// under test sees only these generated inputs, and the oracle's expectations
// are computed here, from the generator's own tenant map, never by asking the
// system.

// Frozen workload sizes (the README repeats them). Changing any of them
// changes what the benchmark measures, so they are constants, not flags.
const (
	poolFrames   = 65536 // frames per pool; the verify pass and the cold walk cover all of them
	windowFrames = 2048  // frames the timed trials walk, in pool order: see trialSeq
	batchSize    = 32    // packets per DeliverVXLANBatchAt call and per wire window

	hitTenants      = 256
	hitVMsPerTenant = 256

	churnRoutesPerTenant = 131072 // /16–/28 mix per engine tenant
	churnPrefixes        = 512    // seeded more-specifics per tenant, half installed at any time
	churnEvery           = 64     // packets per route update
	// One trial is one full turn of the churn cycle (an install and a remove of
	// every more-specific of every tenant), so the tables are back where they
	// started and every trial does the same work.
	churnTrialPackets = 6 * churnPrefixes * churnEvery

	ladderTenants      = 16
	ladderVMsPerTenant = 256
	ladderKeys         = ladderTenants * ladderVMsPerTenant // one pool frame per key
	ladderSNATTenants  = 2
	ladderSNATVMs      = 64
	ladderSNATFrames   = 512
	ladderSNATPermille = 50 // 5 % of packets are SNAT-outbound
	ladderNewSession   = 16 // every 16th SNAT packet opens a session
	ladderRotate       = 64 // Zipf rank order shifts this many keys per trial
	ladderCycleEvery   = 65536
	ladderStratum      = 2048 // packets per stratified Zipf sample; equals one timing slice
	ladderTrialPackets = 262144

	wireTenants      = 64
	wireVMsPerTenant = 64
	wireNCs          = 256
	wirePacedRate    = 2000 // datagrams per second in the paced trials
)

// Fixed wire-format offsets of the frames the generator builds: IPv4
// underlay and overlay, no options, UDP inside.
const (
	outerLen       = 14 + 20 + 8 // outer Ethernet + IPv4 + UDP: what the kernel strips on a socket
	vxlanLen       = 8
	innerOff       = outerLen + vxlanLen
	innerIPOff     = innerOff + 14
	innerL4Off     = innerIPOff + 20
	innerPayloadAt = innerL4Off + 8
)

// expectKind says which tiers may legitimately complete a frame.
type expectKind uint8

const (
	expectHW   expectKind = iota // must be forwarded by XGW-H itself
	expectAny                    // XGW-H, DPU or x86, whichever holds the entry right now
	expectSNAT                   // x86 SNAT-outbound: tunnel stripped, source translated
)

// expectation is the oracle's answer for one pool frame.
type expectation struct {
	kind expectKind
	vni  netpkt.VNI // VNI of the rewritten packet
	nc   netip.Addr // outer destination of the rewritten packet
}

// tenantSpec is one generated tenant.
type tenantSpec struct {
	vni    netpkt.VNI
	prefix netip.Prefix
	vms    []netip.Addr
	ncs    []netip.Addr // ncs[i] hosts vms[i]
}

func (t tenantSpec) facade(snat bool) sailfish.Tenant {
	ft := sailfish.Tenant{VNI: t.vni, Prefix: t.prefix, VMs: make(map[netip.Addr]netip.Addr, len(t.vms)), NeedsSNAT: snat}
	for i, vm := range t.vms {
		ft.VMs[vm] = t.ncs[i]
	}
	return ft
}

// routeSpec is one generated remote route of the churn workload; the tunnel
// address encodes the route's identity, so a wrong longest-prefix answer
// shows as a wrong outer destination.
type routeSpec struct {
	prefix netip.Prefix
	tunnel netip.Addr
}

// inputs is everything one workload run feeds the system.
type inputs struct {
	seed    int64
	frames  [][]byte
	expect  []expectation
	tenants []tenantSpec

	// region-lpm-churn
	routes [3][]routeSpec // per engine tenant
	churn  [3][]routeSpec // seeded more-specifics covering no pool destination

	// region-ladder-zipf
	snatTenants []tenantSpec
	keyOrder    []uint32 // rank → key, before rotation
	ladderRanks []uint32 // the rank sequence of one trial
}

func addr4(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

func u32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// distinctHosts draws n distinct host addresses inside a /16.
func distinctHosts(rng *rand.Rand, base uint32, n int) []netip.Addr {
	seen := make(map[uint32]bool, n)
	out := make([]netip.Addr, 0, n)
	for len(out) < n {
		h := uint32(rng.Intn(65534) + 1)
		if !seen[h] {
			seen[h] = true
			out = append(out, addr4(base|h))
		}
	}
	return out
}

// genTenants builds count tenants of vms VMs each: VNI vniBase+i, prefix
// 10.i.0.0/16, NCs drawn from 100.64.0.0/16.
func genTenants(rng *rand.Rand, vniBase, count, vms int) []tenantSpec {
	out := make([]tenantSpec, count)
	for i := range out {
		base := uint32(10)<<24 | uint32(i)<<16
		t := tenantSpec{
			vni:    netpkt.VNI(vniBase + i),
			prefix: netip.PrefixFrom(addr4(base), 16),
			vms:    distinctHosts(rng, base, vms),
		}
		for range t.vms {
			t.ncs = append(t.ncs, addr4(uint32(100)<<24|uint32(64)<<16|uint32(rng.Intn(65534)+1)))
		}
		out[i] = t
	}
	return out
}

func buildFrame(vni netpkt.VNI, src, dst netip.Addr, sport, dport uint16, payload []byte) []byte {
	raw, err := sailfish.BuildVXLAN(vni, src, dst, sailfish.ProtoUDP, sport, dport, payload)
	if err != nil {
		panic(fmt.Sprintf("bench: build frame: %v", err)) // generator bug: every spec here is well-formed
	}
	return raw
}

func randPayload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// genVMFrames fills the pool with VM-to-VM frames spread uniformly over the
// tenants and their VM pairs; size draws each frame's inner payload length.
func (in *inputs) genVMFrames(rng *rand.Rand, n int, kind expectKind, size func() int) {
	for i := 0; i < n; i++ {
		t := in.tenants[i%len(in.tenants)]
		d := rng.Intn(len(t.vms))
		s := rng.Intn(len(t.vms) - 1)
		if s >= d {
			s++
		}
		in.frames = append(in.frames, buildFrame(t.vni, t.vms[s], t.vms[d],
			uint16(1024+rng.Intn(60000)), uint16(1024+rng.Intn(60000)), randPayload(rng, size())))
		in.expect = append(in.expect, expectation{kind: kind, vni: t.vni, nc: t.ncs[d]})
	}
}

func genHit(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, tenants: genTenants(rng, 1000, hitTenants, hitVMsPerTenant)}
	in.genVMFrames(rng, poolFrames, expectHW, func() int { return 64 })
	return in
}

func genWire(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, tenants: genTenants(rng, 4000, wireTenants, wireVMsPerTenant)}
	// The daemon's underlay map has one entry per NC; keep that table small.
	for ti := range in.tenants {
		for i := range in.tenants[ti].ncs {
			in.tenants[ti].ncs[i] = addr4(uint32(100)<<24 | uint32(64)<<16 | uint32(1+rng.Intn(wireNCs)))
		}
	}
	in.genVMFrames(rng, poolFrames, expectHW, func() int { return 64 })
	return in
}

// --- region-lpm-churn ---

type prefixKey struct {
	bits uint8
	addr uint32
}

func maskTo(a uint32, bits int) uint32 {
	if bits == 0 {
		return 0
	}
	return a &^ (uint32(1)<<(32-bits) - 1)
}

func genChurn(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	perTenant := poolFrames / 3
	for e := 0; e < 3; e++ {
		vni := netpkt.VNI(2000 + e)
		// Routes: distinct random prefixes, lengths uniform in /16–/28.
		byKey := make(map[prefixKey]int, churnRoutesPerTenant)
		routes := make([]routeSpec, 0, churnRoutesPerTenant)
		for len(routes) < churnRoutesPerTenant {
			bits := 16 + rng.Intn(13)
			k := prefixKey{uint8(bits), maskTo(uint32(10)<<24|uint32(rng.Intn(1<<24)), bits)}
			if _, dup := byKey[k]; dup {
				continue
			}
			byKey[k] = len(routes)
			idx := uint32(len(routes))
			routes = append(routes, routeSpec{
				prefix: netip.PrefixFrom(addr4(k.addr), bits),
				tunnel: addr4(uint32(100)<<24 | uint32(e*4)<<16 + idx),
			})
		}
		in.routes[e] = routes
		// The generator's own reference LPM: probe each length, longest first.
		lpm := func(a uint32) int {
			for bits := 28; bits >= 16; bits-- {
				if i, ok := byKey[prefixKey{uint8(bits), maskTo(a, bits)}]; ok {
					return i
				}
			}
			return -1
		}
		// Destinations: a random host under a random route, so every lookup
		// resolves and the 21 845 addresses per tenant share no cache line.
		n := perTenant
		if e == 2 {
			n = poolFrames - 2*perTenant
		}
		dests30 := make(map[uint32]bool, n)
		src := addr4(uint32(172)<<24 | uint32(16)<<16 | uint32(e)<<8 | 2)
		for i := 0; i < n; i++ {
			r := routes[rng.Intn(len(routes))]
			host := u32(r.prefix.Addr()) | uint32(rng.Intn(1<<(32-r.prefix.Bits())))
			dests30[maskTo(host, 30)] = true
			in.frames = append(in.frames, buildFrame(vni, src, addr4(host),
				uint16(1024+rng.Intn(60000)), 443, randPayload(rng, 64)))
			in.expect = append(in.expect, expectation{kind: expectHW, vni: vni, nc: routes[lpm(host)].tunnel})
		}
		// Churn prefixes: /30 more-specifics of existing routes that cover no
		// pool destination, so expectations stay fixed while they come and go.
		seen := make(map[uint32]bool, churnPrefixes)
		for len(in.churn[e]) < churnPrefixes {
			r := routes[rng.Intn(len(routes))]
			a := maskTo(u32(r.prefix.Addr())|uint32(rng.Intn(1<<(32-r.prefix.Bits()))), 30)
			if dests30[a] || seen[a] {
				continue
			}
			seen[a] = true
			in.churn[e] = append(in.churn[e], routeSpec{
				prefix: netip.PrefixFrom(addr4(a), 30),
				tunnel: addr4(uint32(100)<<24 | uint32(16+e)<<16 | uint32(len(in.churn[e]))),
			})
		}
	}
	// Interleave the three tenants so a batch mixes engines.
	perm := rng.Perm(len(in.frames))
	frames, expect := make([][]byte, len(perm)), make([]expectation, len(perm))
	for i, p := range perm {
		frames[i], expect[i] = in.frames[p], in.expect[p]
	}
	in.frames, in.expect = frames, expect
	return in
}

// --- region-ladder-zipf ---

func genLadder(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, tenants: genTenants(rng, 3000, ladderTenants, ladderVMsPerTenant)}
	imix := traffic.IMIX()
	in.keyOrder = make([]uint32, ladderKeys)
	at := make([]int, ladderKeys) // key → its place in keyOrder
	for i, p := range rng.Perm(ladderKeys) {
		in.keyOrder[i], at[p] = uint32(p), i
	}
	// Key k = tenant k/256, VM k%256: one frame per key. Sizes are the IMIX
	// mix dealt by a key's place in the rank order, modulo the rotation step:
	// whichever keys are hot in a trial, rank r always carries the same size,
	// so trials — and seeds — differ in addresses and bytes, not in byte count.
	for k := 0; k < ladderKeys; k++ {
		t := in.tenants[k/ladderVMsPerTenant]
		d := k % ladderVMsPerTenant
		s := rng.Intn(len(t.vms) - 1)
		if s >= d {
			s++
		}
		in.frames = append(in.frames, buildFrame(t.vni, t.vms[s], t.vms[d],
			uint16(1024+rng.Intn(60000)), uint16(1024+rng.Intn(60000)), randPayload(rng, imixAt(imix, at[k]%ladderRotate))))
		in.expect = append(in.expect, expectation{kind: expectAny, vni: t.vni, nc: t.ncs[d]})
	}
	// SNAT service tenants and their Internet-bound frames.
	for s := 0; s < ladderSNATTenants; s++ {
		base := uint32(172)<<24 | uint32(16+s)<<16
		t := tenantSpec{vni: netpkt.VNI(3900 + s), prefix: netip.PrefixFrom(addr4(base), 16),
			vms: distinctHosts(rng, base, ladderSNATVMs)}
		for range t.vms {
			t.ncs = append(t.ncs, addr4(uint32(100)<<24|uint32(65)<<16|uint32(rng.Intn(65534)+1)))
		}
		in.snatTenants = append(in.snatTenants, t)
	}
	servers := make([]netip.Addr, 256)
	for i := range servers {
		servers[i] = addr4(uint32(93)<<24 | uint32(184)<<16 | uint32(rng.Intn(65534)+1))
	}
	for i := 0; i < ladderSNATFrames; i++ {
		t := in.snatTenants[i%len(in.snatTenants)]
		in.frames = append(in.frames, buildFrame(t.vni, t.vms[rng.Intn(len(t.vms))], servers[rng.Intn(len(servers))],
			1024, 443, randPayload(rng, imix.Sample(rng))))
		in.expect = append(in.expect, expectation{kind: expectSNAT, vni: t.vni})
	}
	in.genLadderRanks(rng)
	return in
}

// imixAt deals the mix's sizes evenly over places 0, 1, 2, …: place i takes
// the size whose share of the mix holds the golden-ratio point i·φ mod 1.
func imixAt(mix *traffic.SizeMix, i int) int {
	_, u := math.Modf(float64(i) * 0.6180339887498949)
	sum := 0.0
	for _, w := range mix.Weights {
		sum += w
	}
	acc := 0.0
	for j, w := range mix.Weights {
		if acc += w / sum; u < acc {
			return mix.Sizes[j]
		}
	}
	return mix.Sizes[len(mix.Sizes)-1]
}

// Rank-sequence entries are Zipf ranks, or — with seqSNAT set — indices into
// the SNAT frames; seqNewSession asks the sender to open a new SNAT session
// by bumping the frame's inner source port first.
const (
	seqNewSession = 1 << 31
	seqSNAT       = 1 << 30
)

// genLadderRanks draws the one rank sequence every ladder trial offers.
// Zipf(1.0) over the keys, in strata of ladderStratum packets: each stratum is
// a stratified sample — the hot ranks appear in it exactly as often as their
// share says and the tail is swept by a per-stratum offset — shuffled, with
// its share of SNAT-outbound packets mixed in. Strata are the slices the
// harness times, so two of them cost about the same to forward while the
// whole trial still visits the tail.
func (in *inputs) genLadderRanks(rng *rand.Rand) {
	cdf := make([]float64, ladderKeys)
	sum := 0.0
	for r := range cdf {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	const snatPer = ladderStratum * ladderSNATPermille / 1000
	const regular = ladderStratum - snatPer
	snats := 0
	for start := 0; start < ladderTrialPackets; start += ladderStratum {
		_, phase := math.Modf(float64(start/ladderStratum) * 0.6180339887498949)
		at := len(in.ladderRanks)
		for j := 0; j < regular; j++ {
			rank := sort.SearchFloat64s(cdf, sum*(float64(j)+phase)/regular)
			in.ladderRanks = append(in.ladderRanks, uint32(min(rank, ladderKeys-1)))
		}
		for j := 0; j < snatPer; j++ {
			e := seqSNAT | uint32(rng.Intn(ladderSNATFrames))
			if snats++; snats%ladderNewSession == 0 {
				e |= seqNewSession
			}
			in.ladderRanks = append(in.ladderRanks, e)
		}
		stratum := in.ladderRanks[at:]
		rng.Shuffle(len(stratum), func(i, j int) { stratum[i], stratum[j] = stratum[j], stratum[i] })
	}
}

// trialSeq returns the pool indices of one trial, in offer order. Every trial
// of a workload offers the same work. Off the ladder it walks the pool's
// first windowFrames frames, in pool order (the pool is a uniform draw, so its
// head is one too), as many times over as the trial is long: that working set
// — a few cache lines of table per destination — misses the first-level
// cache on every lookup and stays inside the core's private second level,
// where a neighbour's memory traffic cannot reach it (README, "Noise"). On
// the ladder it is the one rank sequence, with the rank → key order shifted by
// ladderRotate keys per trial, so the keys that are hot keep changing and the
// placement loop keeps moving entries.
func (in *inputs) trialSeq(trial, packets int, buf []uint32) []uint32 {
	seq := buf[:0]
	if in.ladderRanks == nil {
		for i := 0; i < packets; i++ {
			seq = append(seq, uint32(i%windowFrames))
		}
		return seq
	}
	rot := trial * ladderRotate
	for _, e := range in.ladderRanks[:packets] {
		if e&seqSNAT != 0 {
			e = e&^seqSNAT + ladderKeys
		} else {
			e = in.keyOrder[(int(e)+rot)%ladderKeys]
		}
		seq = append(seq, e)
	}
	return seq
}

// bumpSourcePort gives a SNAT frame a fresh inner five-tuple.
func bumpSourcePort(frame []byte) {
	p := binary.BigEndian.Uint16(frame[innerL4Off:])
	if p++; p < 1024 {
		p = 1024
	}
	binary.BigEndian.PutUint16(frame[innerL4Off:], p)
}
