package tables

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"sailfish/internal/netpkt"
)

func TestResolvePeerChainAtHopLimit(t *testing.T) {
	rt := NewVXLANRoutingTable()
	// Chain of 7 peers ending Local: exactly within maxPeerHops (8 lookups).
	const chain = 7
	for i := 0; i < chain; i++ {
		rt.Insert(netpkt.VNI(i), mustPrefix("10.0.0.0/8"),
			Route{Scope: ScopePeer, NextHopVNI: netpkt.VNI(i + 1)})
	}
	rt.Insert(netpkt.VNI(chain), mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	vni, r, err := rt.Resolve(0, netip.MustParseAddr("10.1.1.1"))
	if err != nil || vni != chain || r.Scope != ScopeLocal {
		t.Fatalf("chain of %d: vni=%v r=%+v err=%v", chain, vni, r, err)
	}
	// One hop longer exceeds the budget.
	rt2 := NewVXLANRoutingTable()
	for i := 0; i <= chain+1; i++ {
		rt2.Insert(netpkt.VNI(i), mustPrefix("10.0.0.0/8"),
			Route{Scope: ScopePeer, NextHopVNI: netpkt.VNI(i + 1)})
	}
	rt2.Insert(netpkt.VNI(chain+2), mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	if _, _, err := rt2.Resolve(0, netip.MustParseAddr("10.1.1.1")); err != ErrRouteLoop {
		t.Fatalf("over-long chain: %v", err)
	}
}

func TestRouteOverwrite(t *testing.T) {
	rt := NewVXLANRoutingTable()
	p := mustPrefix("10.0.0.0/8")
	rt.Insert(1, p, Route{Scope: ScopeLocal})
	rt.Insert(1, p, Route{Scope: ScopeRemote, Tunnel: netip.MustParseAddr("100.64.0.1")})
	if rt.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", rt.Len())
	}
	r, _ := rt.Lookup(1, netip.MustParseAddr("10.1.1.1"))
	if r.Scope != ScopeRemote {
		t.Fatalf("overwrite lost: %+v", r)
	}
}

func TestDeleteSpecificRestoresBroader(t *testing.T) {
	rt := NewVXLANRoutingTable()
	rt.Insert(1, mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	rt.Insert(1, mustPrefix("10.1.0.0/16"), Route{Scope: ScopeService})
	a := netip.MustParseAddr("10.1.2.3")
	if r, _ := rt.Lookup(1, a); r.Scope != ScopeService {
		t.Fatal("specific route not preferred")
	}
	rt.Delete(1, mustPrefix("10.1.0.0/16"))
	if r, _ := rt.Lookup(1, a); r.Scope != ScopeLocal {
		t.Fatal("broader route not restored after delete")
	}
}

func TestWalkVNIs(t *testing.T) {
	rt := NewVXLANRoutingTable()
	for i := 0; i < 5; i++ {
		rt.Insert(netpkt.VNI(i), mustPrefix(fmt.Sprintf("10.%d.0.0/16", i)), Route{Scope: ScopeLocal})
	}
	rt.Insert(9, mustPrefix("2001:db8::/32"), Route{Scope: ScopeLocal})
	seen := map[netpkt.VNI]bool{}
	rt.WalkVNIs(false, func(vni netpkt.VNI, tr *Trie[Route]) bool {
		seen[vni] = true
		if tr.Len() == 0 {
			t.Fatalf("empty trie surfaced for %v", vni)
		}
		return true
	})
	if len(seen) != 5 || seen[9] {
		t.Fatalf("v4 walk saw %v", seen)
	}
	count := 0
	rt.WalkVNIs(true, func(netpkt.VNI, *Trie[Route]) bool { count++; return true })
	if count != 1 {
		t.Fatalf("v6 walk saw %d VNIs", count)
	}
	// Early stop.
	count = 0
	rt.WalkVNIs(false, func(netpkt.VNI, *Trie[Route]) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestScopeStrings(t *testing.T) {
	for s, want := range map[Scope]string{
		ScopeLocal: "Local", ScopePeer: "Peer", ScopeRemote: "Remote", ScopeService: "Service",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %q", s, s.String())
		}
	}
	if Scope(99).String() == "" {
		t.Fatal("unknown scope unprintable")
	}
}

func TestSNATPortSpaceWrap(t *testing.T) {
	// One public IP, ports nearly exhausted: the allocator must wrap its
	// cursor and find the remaining hole.
	st := NewSNATTable([]netip.Addr{netip.MustParseAddr("203.0.113.1")})
	// Pre-claim a band of ports by allocating sessions, then release one
	// in the middle and exhaust the tail.
	keys := make([]SNATKey, 0, 100)
	for i := 0; i < 100; i++ {
		k := snatKey(1, "192.168.0.1", uint16(1+i))
		if _, err := st.Translate(k, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	freed := keys[50]
	b, _ := st.Lookup(freed)
	st.Release(freed)
	// A new session must eventually reuse the freed port (cursor wraps).
	got := false
	for i := 0; i < 70000; i++ {
		src := fmt.Sprintf("192.168.%d.2", 1+i/60000)
		k := snatKey(1, src, uint16(i%60000+1))
		nb, err := st.Translate(k, time.Unix(0, 0))
		if err != nil {
			break // pool exhausted; acceptable endpoint for the scan
		}
		if nb == b {
			got = true
			break
		}
	}
	if !got {
		t.Fatal("freed binding never reused")
	}
}

func TestTCAMClearAndWalk(t *testing.T) {
	tc := NewTCAM[int](2)
	tc.Insert([]byte{1, 0}, []byte{0xff, 0}, 9, 1)
	tc.Insert([]byte{2, 0}, []byte{0xff, 0}, 3, 2)
	order := []int{}
	tc.Walk(func(v, m []byte, prio int, val int) bool {
		order = append(order, prio)
		return true
	})
	if len(order) != 2 || order[0] != 9 || order[1] != 3 {
		t.Fatalf("walk order %v", order)
	}
	tc.Clear()
	if tc.Len() != 0 {
		t.Fatal("clear failed")
	}
	if _, ok := tc.Lookup([]byte{1, 5}); ok {
		t.Fatal("cleared TCAM matched")
	}
}

// TestResolveNC pins the software tiers' shared lookup: the NC per scope,
// and which VNI comes back with each miss — the packet's own on a route
// miss (even one reached through a peer hop), the resolved one on a VM miss.
func TestResolveNC(t *testing.T) {
	routes, vms := NewVXLANRoutingTable(), NewVMNCTable()
	pfx := netip.MustParsePrefix
	for _, r := range []struct {
		vni    netpkt.VNI
		prefix string
		route  Route
	}{
		{100, "10.1.0.0/16", Route{Scope: ScopePeer, NextHopVNI: 200}},
		{100, "10.2.0.0/16", Route{Scope: ScopeRemote, Tunnel: netip.MustParseAddr("198.51.100.1")}},
		{100, "10.3.0.0/16", Route{Scope: ScopeService}},
		{100, "10.4.0.0/16", Route{Scope: ScopePeer, NextHopVNI: 300}},
		{200, "10.1.0.0/16", Route{Scope: ScopeLocal}},
	} {
		if err := routes.Insert(r.vni, pfx(r.prefix), r.route); err != nil {
			t.Fatal(err)
		}
	}
	vms.Insert(200, netip.MustParseAddr("10.1.0.5"), netip.MustParseAddr("100.64.0.5"))
	for _, tc := range []struct {
		dst     string
		vni     netpkt.VNI
		scope   Scope
		nc      string
		wantErr error
	}{
		{"10.1.0.5", 200, ScopeLocal, "100.64.0.5", nil},
		{"10.1.0.6", 200, ScopeLocal, "", ErrNoVM},
		{"10.2.0.1", 100, ScopeRemote, "198.51.100.1", nil},
		{"10.3.0.1", 100, ScopeService, "", nil},
		{"10.4.0.1", 100, 0, "", ErrNoRoute},
		{"10.9.0.1", 100, 0, "", ErrNoRoute},
	} {
		vni, scope, nc, err := ResolveNC(routes, vms, 100, netip.MustParseAddr(tc.dst))
		if !errors.Is(err, tc.wantErr) || vni != tc.vni || (err == nil && scope != tc.scope) ||
			(tc.nc != "" && nc != netip.MustParseAddr(tc.nc)) || (tc.nc == "" && nc.IsValid()) {
			t.Errorf("%s: got vni %d scope %v nc %v err %v", tc.dst, vni, scope, nc, err)
		}
	}
}
