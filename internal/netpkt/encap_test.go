package netpkt

import (
	"bytes"
	"net/netip"
	"testing"
)

// TestEncapVXLANRoundTrip re-encapsulates one parsed packet's inner frame
// toward an IPv4 and then an IPv6 NC through the same Encap, and parses each
// result back: outer addresses, VNI, source port and inner frame must
// survive, and the family switch must not leak the previous packet's
// headers. The steady state must not allocate.
func TestEncapVXLANRoundTrip(t *testing.T) {
	raw := buildTestPacket(t, BuildSpec{
		VNI:      100,
		OuterSrc: v4("10.0.0.1"), OuterDst: v4("10.0.0.2"),
		InnerSrc: v4("192.168.10.2"), InnerDst: v4("192.168.10.3"),
		Proto: IPProtocolUDP, SrcPort: 5555, DstPort: 53,
		Payload: []byte("hello"),
	})
	var p Parser
	var in, out GatewayPacket
	if err := p.Parse(raw, &in); err != nil {
		t.Fatal(err)
	}
	inner := in.VXLAN.Payload()
	var e Encap
	b := NewSerializeBuffer(128, 2048)
	for _, dst := range []netip.Addr{v4("100.64.0.7"), netip.MustParseAddr("fd00::7")} {
		src := v4("10.255.0.1")
		if dst.Is6() {
			src = netip.MustParseAddr("fd00::1")
		}
		wire, err := e.VXLAN(b, inner, src, dst, 0xC123, 200)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Parse(wire, &out); err != nil {
			t.Fatalf("%v: %v", dst, err)
		}
		if out.OuterSrc() != src || out.OuterDst() != dst || out.VXLAN.VNI != 200 ||
			out.OuterUDP.SrcPort != 0xC123 || !bytes.Equal(out.VXLAN.Payload(), inner) {
			t.Fatalf("%v: outer %v -> %v vni %v sport %#x", dst, out.OuterSrc(), out.OuterDst(),
				out.VXLAN.VNI, out.OuterUDP.SrcPort)
		}
	}
	src, dst := v4("10.255.0.1"), v4("100.64.0.7")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.VXLAN(b, inner, src, dst, 0xC123, 200); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encap allocates %.1f per packet, want 0", allocs)
	}
}
