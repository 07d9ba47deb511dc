package netpkt

import "net/netip"

// Encap is the preallocated outer header set a forwarder re-encapsulates
// through. Each single-threaded forwarding context (a gateway packet
// scratch, a DPU device, an x86 node) owns one, so the forward path writes
// into fixed header structs and never touches the heap — the hardware
// analogue is a deparser filling fixed header vectors.
type Encap struct {
	eth    Ethernet
	ip4    IPv4
	ip6    IPv6
	udp    UDP
	vxlan  VXLAN
	layers [4]SerializableLayer
}

// VXLAN serializes inner into b behind fresh outer Ethernet/IP/UDP/VXLAN
// headers: src → dst at the IP layer (the family follows dst), srcPort →
// the VXLAN port at UDP, and vni in the VXLAN header. Whole-struct
// assignment resets the previous packet's header state. The returned slice
// aliases b and is valid until b is next written.
func (e *Encap) VXLAN(b *SerializeBuffer, inner []byte, src, dst netip.Addr, srcPort uint16, vni VNI) ([]byte, error) {
	if dst.Is6() {
		e.eth = Ethernet{EtherType: EtherTypeIPv6}
		e.ip6 = IPv6{NextHeader: IPProtocolUDP, HopLimit: 64, SrcIP: src, DstIP: dst}
		e.layers[1] = &e.ip6
	} else {
		e.eth = Ethernet{EtherType: EtherTypeIPv4}
		e.ip4 = IPv4{TTL: 64, Protocol: IPProtocolUDP, SrcIP: src, DstIP: dst}
		e.layers[1] = &e.ip4
	}
	e.udp = UDP{SrcPort: srcPort, DstPort: VXLANPort}
	e.vxlan = VXLAN{VNI: vni}
	e.layers[0], e.layers[2], e.layers[3] = &e.eth, &e.udp, &e.vxlan
	if err := SerializeLayers(b, inner, e.layers[:]...); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
