package xgwh

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sailfish/internal/metrics"
	"sailfish/internal/tables"
)

// TestStatsConcurrentWithTraffic drives the single-writer data plane from
// one goroutine while scrapers hammer Stats/ResetStats and the registry
// exposition — the tentpole's contract, checked under -race by the Makefile.
func TestStatsConcurrentWithTraffic(t *testing.T) {
	g := newTestGateway()
	g.InstallRoute(100, pfx("192.168.10.0/24"), tables.Route{Scope: tables.ScopeLocal})
	g.InstallVM(100, addr("192.168.10.3"), addr("10.1.1.12"))
	reg := metrics.NewRegistry()
	g.RegisterMetrics(reg, "n0")
	g.EnableStageMetrics(metrics.NewStageHistograms(reg,
		"sailfish_gw_stage_latency_ns", "stage latency"))
	raw := buildPacket(t, 100, "192.168.10.2", "192.168.10.3")
	miss := buildPacket(t, 100, "192.168.10.2", "10.9.9.9")

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func(reset bool) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = g.Stats()
				if reset {
					g.ResetStats()
				} else {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i == 1)
	}

	const packets = 5000
	for i := 0; i < packets; i++ {
		p := raw
		if i%5 == 0 {
			p = miss // exercises the fallback counter too
		}
		if _, err := g.ProcessPacket(p, time.Unix(0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	scrapers.Wait()

	// After quiescing, a final round must land entirely in one snapshot.
	g.ResetStats()
	for i := 0; i < 10; i++ {
		if _, err := g.ProcessPacket(raw, time.Unix(1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Forwarded != 10 || st.Fallback != 0 || st.Dropped != 0 {
		t.Fatalf("post-reset stats = %+v", st)
	}
}
