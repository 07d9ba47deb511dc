package tables

import (
	"errors"
	"fmt"
	"net/netip"

	"sailfish/internal/netpkt"
)

// Scope classifies where a VXLAN route points, per Fig. 2 of the paper.
type Scope uint8

const (
	// ScopeLocal: the destination VM is in this VNI; proceed to the VM-NC
	// mapping table.
	ScopeLocal Scope = iota
	// ScopePeer: the destination is in a peered VPC; re-look-up the VXLAN
	// routing table with the next-hop VNI.
	ScopePeer
	// ScopeRemote: the destination is in another region or an IDC; tunnel
	// the packet to the remote gateway address.
	ScopeRemote
	// ScopeService: the packet needs a software service (e.g. SNAT);
	// steer it to the XGW-x86 fallback path.
	ScopeService
)

// String returns the scope name used in the paper's tables.
func (s Scope) String() string {
	switch s {
	case ScopeLocal:
		return "Local"
	case ScopePeer:
		return "Peer"
	case ScopeRemote:
		return "Remote"
	case ScopeService:
		return "Service"
	}
	return fmt.Sprintf("Scope(%d)", uint8(s))
}

// Route is the action half of a VXLAN routing entry.
type Route struct {
	Scope      Scope
	NextHopVNI netpkt.VNI // valid when Scope == ScopePeer
	Tunnel     netip.Addr // valid when Scope == ScopeRemote: remote gateway
}

// ErrRouteLoop reports a Peer chain that does not terminate.
var ErrRouteLoop = errors.New("tables: VPC peering loop")

// ErrNoRoute reports a miss in the VXLAN routing table.
var ErrNoRoute = errors.New("tables: no VXLAN route")

// maxPeerHops bounds Peer-chain resolution; production peering graphs are
// shallow, and the hardware resolves at most a few recirculations.
const maxPeerHops = 8

// VXLANRoutingTable is the (VNI, inner destination IP) → Route LPM table of
// Fig. 2. Per-VNI tries keep IPv4 and IPv6 prefixes separate, matching the
// dual-stack table pooling discussion in §4.4.
type VXLANRoutingTable struct {
	v4 map[netpkt.VNI]*Trie[Route]
	v6 map[netpkt.VNI]*Trie[Route]
	n  int
}

// NewVXLANRoutingTable returns an empty routing table.
func NewVXLANRoutingTable() *VXLANRoutingTable {
	return &VXLANRoutingTable{
		v4: make(map[netpkt.VNI]*Trie[Route]),
		v6: make(map[netpkt.VNI]*Trie[Route]),
	}
}

// Len returns the total number of installed routes.
func (t *VXLANRoutingTable) Len() int { return t.n }

func (t *VXLANRoutingTable) trieFor(vni netpkt.VNI, is6 bool, create bool) *Trie[Route] {
	m, bits := t.v4, 32
	if is6 {
		m, bits = t.v6, 128
	}
	tr := m[vni]
	if tr == nil && create {
		tr = NewTrie[Route](bits)
		m[vni] = tr
	}
	return tr
}

// Insert adds or replaces the route for (vni, prefix).
func (t *VXLANRoutingTable) Insert(vni netpkt.VNI, p netip.Prefix, r Route) error {
	tr := t.trieFor(vni, p.Addr().Is6(), true)
	before := tr.Len()
	if err := tr.Insert(p, r); err != nil {
		return err
	}
	t.n += tr.Len() - before
	return nil
}

// Delete removes the route for (vni, prefix) and reports whether it existed.
func (t *VXLANRoutingTable) Delete(vni netpkt.VNI, p netip.Prefix) bool {
	tr := t.trieFor(vni, p.Addr().Is6(), false)
	if tr == nil {
		return false
	}
	if tr.Delete(p) {
		t.n--
		return true
	}
	return false
}

// Get returns the route installed for exactly (vni, prefix).
func (t *VXLANRoutingTable) Get(vni netpkt.VNI, p netip.Prefix) (Route, bool) {
	tr := t.trieFor(vni, p.Addr().Is6(), false)
	if tr == nil {
		return Route{}, false
	}
	return tr.Get(p)
}

// Lookup returns the longest-prefix route for (vni, addr).
func (t *VXLANRoutingTable) Lookup(vni netpkt.VNI, addr netip.Addr) (Route, bool) {
	tr := t.trieFor(vni, addr.Is6(), false)
	if tr == nil {
		return Route{}, false
	}
	r, _, ok := tr.Lookup(addr)
	return r, ok
}

// Resolve follows Peer next-hops until the route is Local, Remote or
// Service, returning the final VNI (the VPC actually containing the
// destination) and route. It fails with ErrNoRoute on a miss and
// ErrRouteLoop on a non-terminating peering chain.
func (t *VXLANRoutingTable) Resolve(vni netpkt.VNI, addr netip.Addr) (netpkt.VNI, Route, error) {
	v, r, _, err := t.ResolveN(vni, addr)
	return v, r, err
}

// ErrNoVM reports a local-scope route whose destination VM has no VM-NC
// mapping.
var ErrNoVM = errors.New("tables: no VM-NC mapping")

// ResolveNC is the software tiers' lookup: route (peer chains followed),
// then by scope the NC the packet leaves toward — the VM's host from vms for
// a local route, the tunnel endpoint for a remote one. It returns the VNI
// that holds the destination and the route's scope; a service-scope route
// resolves to no NC, leaving the SNAT steer to the caller. On a route miss
// or loop the error is Resolve's and the VNI is the packet's own; on a VM
// miss it is ErrNoVM and the VNI is the resolved one.
func ResolveNC(routes *VXLANRoutingTable, vms *VMNCTable, vni netpkt.VNI, dst netip.Addr) (netpkt.VNI, Scope, netip.Addr, error) {
	final, r, err := routes.Resolve(vni, dst)
	if err != nil {
		return vni, r.Scope, netip.Addr{}, err
	}
	switch r.Scope {
	case ScopeLocal:
		if nc, ok := vms.Lookup(final, dst); ok {
			return final, r.Scope, nc, nil
		}
		return final, r.Scope, netip.Addr{}, ErrNoVM
	case ScopeRemote:
		return final, r.Scope, r.Tunnel, nil
	}
	return final, r.Scope, netip.Addr{}, nil
}

// ResolveN is Resolve plus the number of table lookups consumed: each Peer
// hop beyond the first is a recirculation on the hardware, costing an extra
// pipeline pass.
func (t *VXLANRoutingTable) ResolveN(vni netpkt.VNI, addr netip.Addr) (netpkt.VNI, Route, int, error) {
	cur := vni
	for hop := 0; hop < maxPeerHops; hop++ {
		r, ok := t.Lookup(cur, addr)
		if !ok {
			return cur, Route{}, hop + 1, ErrNoRoute
		}
		if r.Scope != ScopePeer {
			return cur, r, hop + 1, nil
		}
		cur = r.NextHopVNI
	}
	return cur, Route{}, maxPeerHops, ErrRouteLoop
}

// WalkVNIs visits every VNI that has at least one route of the given family.
func (t *VXLANRoutingTable) WalkVNIs(is6 bool, fn func(vni netpkt.VNI, tr *Trie[Route]) bool) {
	m := t.v4
	if is6 {
		m = t.v6
	}
	for vni, tr := range m {
		if !fn(vni, tr) {
			return
		}
	}
}

// VMKey identifies a VM: the VPC's VNI plus the VM's overlay address.
type VMKey struct {
	VNI  netpkt.VNI
	Addr netip.Addr
}

// VMNCTable is the exact-match (VNI, VM IP) → NC (physical server) IP table
// of Fig. 2. NC is the Node Controller hosting the VM.
type VMNCTable struct {
	m map[VMKey]netip.Addr
}

// NewVMNCTable returns an empty mapping table.
func NewVMNCTable() *VMNCTable {
	return &VMNCTable{m: make(map[VMKey]netip.Addr)}
}

// Len returns the number of VM→NC mappings.
func (t *VMNCTable) Len() int { return len(t.m) }

// Insert adds or replaces the NC address hosting (vni, vm).
func (t *VMNCTable) Insert(vni netpkt.VNI, vm, nc netip.Addr) {
	t.m[VMKey{vni, vm}] = nc
}

// Delete removes the mapping and reports whether it existed.
func (t *VMNCTable) Delete(vni netpkt.VNI, vm netip.Addr) bool {
	k := VMKey{vni, vm}
	if _, ok := t.m[k]; !ok {
		return false
	}
	delete(t.m, k)
	return true
}

// Lookup returns the NC hosting (vni, vm).
func (t *VMNCTable) Lookup(vni netpkt.VNI, vm netip.Addr) (netip.Addr, bool) {
	nc, ok := t.m[VMKey{vni, vm}]
	return nc, ok
}

// Walk visits every mapping in unspecified order.
func (t *VMNCTable) Walk(fn func(k VMKey, nc netip.Addr) bool) {
	for k, nc := range t.m {
		if !fn(k, nc) {
			return
		}
	}
}
