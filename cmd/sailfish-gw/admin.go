package main

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"strconv"
	"strings"

	"sailfish/internal/adminapi"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/telemetry"
	"sailfish/internal/trace"
)

// The admin plane: a loopback-friendly HTTP listener exposing the live
// registry as Prometheus text (/metrics), a liveness probe (/healthz), the
// standard pprof surface (/debug/pprof/...), the flight recorder
// (/debug/trace, /debug/trace/drops), heavy-hitter telemetry (/topk) and
// the Vtrace loss-localization view (/vtrace, /vtrace/rule) — all read-only
// views over atomic counters and lock-free rings (rule installs are
// copy-on-write), so scraping never perturbs the data plane.

// registerMetrics builds the daemon's live registry: gateway and software
// node counters (including every drop reason), the fallback ratio, and the
// per-stage latency histograms that the gateway starts observing once
// attached.
func (s *server) registerMetrics() *metrics.Registry {
	reg := metrics.NewRegistry()
	s.gw.RegisterMetrics(reg, "xgwh-0")
	s.x86.RegisterMetrics(reg, "xgw86-0")
	s.x86.SNATService().RegisterMetrics(reg)
	stages := metrics.NewStageHistograms(reg,
		"sailfish_gw_stage_latency_ns",
		"per-stage forwarding latency in nanoseconds")
	s.gw.EnableStageMetrics(stages)
	if s.loop != nil {
		s.loop.RegisterMetrics(reg)
	}
	if s.sloEng != nil {
		s.sloEng.AttachStageHistograms(stages)
		s.sloEng.RegisterMetrics(reg)
	}
	if s.dpu != nil {
		s.dpu.RegisterMetrics(reg)
	}
	// Workers mode: per-shard intake counters and ring-depth gauges, the
	// daemon-side mirror of the shardplane families. Gateway counters above
	// are already merged — every worker increments the same atomic cells.
	for i, sh := range s.shards {
		sh := sh
		lbl := metrics.Labels{"shard": strconv.Itoa(i)}
		reg.CounterFunc("sailfish_gw_shard_accepted_total", "datagrams enqueued to the shard ring", lbl,
			sh.accepted.Load)
		reg.CounterFunc("sailfish_gw_shard_processed_total", "datagrams run to completion by the worker", lbl,
			sh.processed.Load)
		reg.CounterFunc("sailfish_gw_shard_ring_full_total", "datagrams tail-dropped by a full shard ring", lbl,
			sh.ringFull.Load)
		reg.CounterFunc("sailfish_gw_shard_oversize_total", "datagrams exceeding the ring slot size", lbl,
			sh.oversize.Load)
		reg.GaugeFunc("sailfish_gw_shard_ring_depth", "current shard ring depth", lbl,
			func() float64 { return float64(sh.ring.Len()) })
	}
	return reg
}

// writeJSON renders one response body; encode errors mean the client left.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone mid-reply
}

// newAdminMux mounts the admin endpoints on a private mux (pprof is wired
// explicitly rather than through http.DefaultServeMux, so tests can run
// several admin planes side by side).
func newAdminMux(s *server, reg *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n")) //nolint:errcheck
	})

	// Flight recorder. ?flow= takes the hex hash printed by the trace/topk
	// views (0x-prefixed or bare), ?vni= narrows to a tenant, ?drops=1
	// keeps only drop verdicts, ?n= caps the event count (newest kept).
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var f trace.Filter
		if v := q.Get("flow"); v != "" {
			h, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				http.Error(w, "bad flow: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.FlowHash, f.MatchFlow = h, true
		}
		if v := q.Get("vni"); v != "" {
			u, err := strconv.ParseUint(v, 0, 32)
			if err != nil {
				http.Error(w, "bad vni: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.VNI, f.MatchVNI = netpkt.VNI(u), true
		}
		if v := q.Get("drops"); v == "1" || v == "true" {
			f.DropsOnly = true
		}
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		writeJSON(w, adminapi.BuildTrace(s.rec, f))
	})
	mux.HandleFunc("/debug/trace/drops", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, adminapi.BuildDrops(s.rec))
	})

	// Stateful SNAT survivability: per-shard occupancy, replication lag
	// and backlog, and the preserved/orphaned promotion accounting.
	mux.HandleFunc("/snat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, adminapi.BuildSNAT(s.x86.SNATService()))
	})

	// Heavy hitters: ?coverage= is the residency target (default 0.95, the
	// 95 in the paper's 95/5 split); ?n= caps the flow top-K list.
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		coverage := 0.95
		if v := q.Get("coverage"); v != "" {
			c, err := strconv.ParseFloat(v, 64)
			// NaN fails neither bound check, so test for it explicitly
			// rather than handing a poison value to HotEntries.
			if err != nil || math.IsNaN(c) || c < 0 || c > 1 {
				http.Error(w, "bad coverage (want 0..1)", http.StatusBadRequest)
				return
			}
			coverage = c
		}
		n := 10
		if v := q.Get("n"); v != "" {
			var err error
			if n, err = strconv.Atoi(v); err != nil {
				http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		writeJSON(w, adminapi.BuildTopK(s.hh, coverage, n))
	})

	// Residency loop: the last cycle's report, lifetime totals and the
	// promoted set. Served (with enabled=false) even when placement is off,
	// so clients need no probing.
	mux.HandleFunc("/placement", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, adminapi.BuildPlacement(s.loop))
	})

	// Per-tenant SLO state: /slo is every tracked tenant's burn/coverage
	// view, /slo/{vni} adds one tenant's retained per-tick history. Served
	// (with enabled=false) even when the slo stanza is off.
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, adminapi.BuildSLO(s.sloEng))
	})
	mux.HandleFunc("/slo/", func(w http.ResponseWriter, r *http.Request) {
		u, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/slo/"), 10, 32)
		if err != nil {
			http.Error(w, "bad vni: "+err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, adminapi.BuildSLOTenant(s.sloEng, uint32(u)))
	})

	// Ops journal tail: ?since= resumes strictly after a sequence number
	// (the cursor a follower advances), ?n= caps the page size.
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var since uint64
		if v := q.Get("since"); v != "" {
			var err error
			if since, err = strconv.ParseUint(v, 10, 64); err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		max := 0
		if v := q.Get("n"); v != "" {
			var err error
			if max, err = strconv.Atoi(v); err != nil || max < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
		}
		writeJSON(w, adminapi.BuildEvents(s.journal, since, max))
	})

	// Vtrace: the collector's flow paths and loss-localization findings.
	// The expected hop list is this daemon's single hardware box — the
	// software node only appears on fallback paths, so it is not part of
	// the healthy sequence.
	mux.HandleFunc("/vtrace", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, adminapi.BuildVtrace(s.matcher, s.collector, []string{"xgwh-0"}))
	})
	mux.HandleFunc("/vtrace/rule", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		u, err := strconv.ParseUint(q.Get("vni"), 0, 32)
		if err != nil {
			http.Error(w, "bad vni: "+err.Error(), http.StatusBadRequest)
			return
		}
		rule := telemetry.Rule{VNI: netpkt.VNI(u)}
		resp := adminapi.VtraceRule{VNI: uint32(u)}
		if v := q.Get("dst"); v != "" {
			p, err := netip.ParsePrefix(v)
			if err != nil {
				http.Error(w, "bad dst: "+err.Error(), http.StatusBadRequest)
				return
			}
			rule.Dst = p
			resp.Dst = p.String()
		}
		s.matcher.Add(rule)
		writeJSON(w, resp)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startAdmin binds addr and serves the admin mux from a background
// goroutine, returning the bound address (useful with ":0") and a closer.
func startAdmin(addr string, s *server, reg *metrics.Registry) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: newAdminMux(s, reg)}
	go srv.Serve(ln) //nolint:errcheck // returns on Close
	return ln.Addr(), srv.Close, nil
}
