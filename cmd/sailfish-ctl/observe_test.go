package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"strings"
	"testing"

	"sailfish/internal/adminapi"
	"sailfish/internal/heavyhitter"
	"sailfish/internal/netpkt"
	"sailfish/internal/trace"
)

// fakeAdmin serves a canned admin plane built from real recorder/tracker
// state, so the client renders exactly what a live daemon would produce.
func fakeAdmin(t *testing.T) *httptest.Server {
	t.Helper()
	rec := trace.New(trace.Config{Shards: 1, SlotsPerShard: 64, SampleShift: 4})
	dev := rec.InternDevice("xgwh-0")
	rec.Record(trace.Event{TimeNs: 100, FlowHash: 0xabc, VNI: 100, Dev: dev,
		Stage: trace.StageGateway, Verdict: trace.VerdictForward})
	rec.Record(trace.Event{TimeNs: 200, FlowHash: 0xdef, VNI: 101, Dev: dev,
		Stage: trace.StageGateway, Verdict: trace.VerdictDrop, Code: 1})

	hh := heavyhitter.NewTracker(16)
	dip := netip.MustParseAddr("192.168.10.3")
	for i := 0; i < 90; i++ {
		hh.Observe(0, 100, 0xabc, dip, 100)
	}
	for i := 0; i < 10; i++ {
		hh.Observe(0, 101, 0xdef, netip.MustParseAddr("192.168.11.4"), 100)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeBody(t, w, adminapi.BuildTopK(hh, 0.95, 10))
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		var f trace.Filter
		if r.URL.Query().Get("drops") == "1" {
			f.DropsOnly = true
		}
		if v := r.URL.Query().Get("vni"); v != "" {
			u, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				t.Errorf("bad vni %q", v)
			}
			f.MatchVNI, f.VNI = true, netpkt.VNI(u)
		}
		writeBody(t, w, adminapi.BuildTrace(rec, f))
	})
	mux.HandleFunc("/debug/trace/drops", func(w http.ResponseWriter, r *http.Request) {
		writeBody(t, w, adminapi.BuildDrops(rec))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func writeBody(t *testing.T, w http.ResponseWriter, v any) {
	t.Helper()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRunTop renders the heavy-hitter view through the real HTTP client.
func TestRunTop(t *testing.T) {
	srv := fakeAdmin(t)
	var b strings.Builder
	if err := runTop(&b, srv.URL, 0.95, 10); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"observed packets: 100",
		"192.168.10.3",
		"0x0000000000000abc",
		"90.00%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("top output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTrace renders events and the drops tally.
func TestRunTrace(t *testing.T) {
	srv := fakeAdmin(t)
	var b strings.Builder
	if err := runTrace(&b, srv.URL, "", 0, false, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"2 events (forward sampling 1-in-16; drops always captured)",
		"xgwh-0",
		"forward",
		"parse_error",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	if err := runTraceDrops(&b, srv.URL); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "gateway") || !strings.Contains(out, "parse_error") {
		t.Fatalf("drops output missing tally:\n%s", out)
	}
}

// TestRunTraceBadServer surfaces non-200s as errors.
func TestRunTraceBadServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	defer srv.Close()
	if err := runTrace(&strings.Builder{}, srv.URL, "zzz", 0, false, 0); err == nil {
		t.Fatal("bad status not surfaced")
	}
}

// TestRunPlacement renders the residency-loop view, enabled and not.
func TestRunPlacement(t *testing.T) {
	resp := adminapi.PlacementResponse{
		Enabled:        true,
		PromoteShare:   0.0005,
		DemoteShare:    0.000125,
		CoverageTarget: 0.95,
		ChurnBudget:    64,
		Last: adminapi.PlacementCycle{
			Cycle: 7, Promoted: 3, Demoted: 1, DeferredChurn: 2,
			ResidentKeys: 12, ResidentEntries: 24, DesiredEntries: 404,
			HardwareShare: 0.9991,
		},
		Totals: adminapi.PlacementTotals{Cycles: 7, Promotions: 15, Demotions: 3, DeferredChurn: 4},
		Resident: []adminapi.PlacementEntry{
			{VNI: 100, DIP: "192.168.10.3", Cluster: 0, Share: 0.42, ResidentAtNs: 1000},
		},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/placement" {
			http.NotFound(w, r)
			return
		}
		writeBody(t, w, resp)
	}))
	defer srv.Close()

	var b strings.Builder
	if err := runPlacement(&b, srv.URL); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"churn budget 64/cycle",
		"cycle 7: +3/-1 hw moves",
		"12 keys, 24/404 hardware entries, ~99.91% of traffic",
		"15 promotions, 3 demotions",
		"192.168.10.3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("placement output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "dpu:") {
		t.Fatalf("two-tier view must not render the dpu lines:\n%s", out)
	}

	// The three-tier ladder adds the warm-rung policy, cycle, and coverage
	// lines plus the TIER column.
	resp.Ladder = true
	resp.WarmShare = 0.0005 / 8
	resp.WarmDemoteShare = 0.0005 / 32
	resp.DPUChurnBudget = 64
	resp.Last.PromotedDPU, resp.Last.DemotedDPU = 5, 2
	resp.Last.Cascaded, resp.Last.Upgraded = 1, 1
	resp.Last.DPUResidentKeys, resp.Last.DPUShare, resp.Last.StackShare = 40, 0.0008, 0.9999
	resp.Totals.PromotionsDPU, resp.Totals.DemotionsDPU = 9, 4
	resp.Totals.Cascades, resp.Totals.Upgrades = 2, 3
	resp.Resident = append(resp.Resident, adminapi.PlacementEntry{
		VNI: 100, DIP: "192.168.10.7", Cluster: 0, Tier: "dpu", Share: 0.0001, ResidentAtNs: 2000,
	})
	b.Reset()
	if err := runPlacement(&b, srv.URL); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, want := range []string{
		"dpu churn budget 64/cycle",
		"dpu: +5/-2 moves, 1 cascaded down, 1 upgraded up",
		"warm: 40 dpu keys",
		"stack serves ~99.99%",
		"9 promotions, 4 demotions, 2 cascades, 3 upgrades",
		"192.168.10.7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ladder output missing %q:\n%s", want, out)
		}
	}

	resp.Enabled = false
	b.Reset()
	if err := runPlacement(&b, srv.URL); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "not enabled") {
		t.Fatalf("disabled loop not reported:\n%s", b.String())
	}
}
