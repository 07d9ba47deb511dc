package main

import (
	"bytes"
	"encoding/binary"
	"net/netip"

	"sailfish/internal/cluster"
	"sailfish/internal/netpkt"
	"sailfish/internal/xgwh"
)

// The oracle decodes rewritten packets with its own fixed-offset reader (the
// generator only builds option-less IPv4 frames), so a codec bug in netpkt
// cannot hide itself by being used on both sides of the comparison.

var gatewayIP = netip.MustParseAddr("10.255.0.1") // cluster.DefaultConfig().GatewayIP

// x86 pool public addresses are 203.0.113.(10+i); see cluster.NewRegion.
func isPoolIP(b []byte) bool {
	return b[0] == 203 && b[1] == 0 && b[2] == 113 && b[3] >= 10
}

// outerOK checks a re-encapsulated packet against the frame it came from:
// outer source is the gateway VIP, outer destination the expected NC, the
// VXLAN header carries the expected VNI, and the inner frame is untouched.
func outerOK(out, sent []byte, e expectation) bool {
	if len(out) != len(sent) || len(out) < innerOff {
		return false
	}
	if binary.BigEndian.Uint16(out[12:]) != 0x0800 || out[14] != 0x45 || out[23] != 17 {
		return false
	}
	gw, nc := gatewayIP.As4(), e.nc.As4()
	if !bytes.Equal(out[26:30], gw[:]) || !bytes.Equal(out[30:34], nc[:]) {
		return false
	}
	if binary.BigEndian.Uint16(out[36:]) != netpkt.VXLANPort || out[outerLen]&0x08 == 0 {
		return false
	}
	if netpkt.VNI(binary.BigEndian.Uint32(out[outerLen+4:])>>8) != e.vni {
		return false
	}
	return bytes.Equal(out[innerOff:], sent[innerOff:])
}

// snatOK checks SNAT-outbound output: the tunnel is gone, the source is a
// pool address, destination, destination port and payload are the sender's.
func snatOK(out, sent []byte) bool {
	const l4 = 14 + 20
	if len(out) != len(sent)-innerOff || binary.BigEndian.Uint16(out[12:]) != 0x0800 || out[23] != 17 {
		return false
	}
	if !isPoolIP(out[26:30]) || !bytes.Equal(out[30:34], sent[innerIPOff+16:innerIPOff+20]) {
		return false
	}
	if !bytes.Equal(out[l4+2:l4+4], sent[innerL4Off+2:innerL4Off+4]) {
		return false
	}
	return bytes.Equal(out[l4+8:], sent[innerPayloadAt:])
}

// verdictOK checks everything about a region result that stays valid after
// the batch returns: error, tier and next hop. It reports which tier served.
func verdictOK(br *cluster.BatchResult, e expectation) (tier int, ok bool) {
	if br.Err != nil {
		return tierNone, false
	}
	r := &br.Result
	switch {
	case r.ViaDPU:
		return tierDPU, e.kind == expectAny && !r.ViaFallback && r.DPUOut.NC == e.nc
	case r.ViaFallback:
		if e.kind == expectSNAT {
			return tierX86, r.FallbackOut.ToInternet
		}
		return tierX86, e.kind == expectAny && !r.FallbackOut.ToInternet && r.FallbackOut.NC == e.nc
	default:
		return tierHW, e.kind != expectSNAT && r.GW.Action == xgwh.ActionForward && r.GW.NC == e.nc
	}
}

// bytesOK checks the rewritten packet itself. Out slices alias per-node
// scratch, so only the most recent result of each node is still intact: the
// timed loop checks the last packet of every batch, the verify pass (one
// packet at a time) checks every frame of the pool.
func bytesOK(r *cluster.Result, sent []byte, e expectation) bool {
	switch {
	case r.ViaDPU:
		return outerOK(r.DPUOut.Out, sent, e)
	case r.ViaFallback:
		if e.kind == expectSNAT {
			return snatOK(r.FallbackOut.Out, sent)
		}
		return outerOK(r.FallbackOut.Out, sent, e)
	default:
		return outerOK(r.GW.Out, sent, e)
	}
}

const (
	tierHW = iota
	tierDPU
	tierX86
	tierNone
)
