// Package adminapi defines the JSON wire types of the sailfish-gw admin
// plane's observability endpoints (/debug/trace, /debug/trace/drops, /topk,
// /vtrace) and the builders that materialize them from the live recorder,
// heavy-hitter tracker and Vtrace collector. sailfish-gw is the producer and
// sailfish-ctl the consumer; sharing one package keeps the two from
// drifting.
package adminapi

import (
	"fmt"
	"math"

	"sailfish/internal/heavyhitter"
	"sailfish/internal/netpkt"
	"sailfish/internal/placement"
	"sailfish/internal/slo"
	"sailfish/internal/snat"
	"sailfish/internal/telemetry"
	"sailfish/internal/trace"
)

// TraceEvent is one flight-recorder record with its interned codes resolved
// to names. FlowHash is rendered in hex — it is an identity, not a number.
type TraceEvent struct {
	TimeNs   int64  `json:"timeNs"`
	FlowHash string `json:"flowHash"`
	VNI      uint32 `json:"vni"`
	Device   string `json:"device"`
	Stage    string `json:"stage"`
	Verdict  string `json:"verdict"`
	Reason   string `json:"reason,omitempty"`
}

// TraceResponse is the /debug/trace body.
type TraceResponse struct {
	SampleShift uint         `json:"sampleShift"`
	Events      []TraceEvent `json:"events"`
}

// BuildTrace snapshots the recorder under the given filter.
func BuildTrace(rec *trace.Recorder, f trace.Filter) TraceResponse {
	if rec == nil {
		return TraceResponse{Events: []TraceEvent{}}
	}
	out := TraceResponse{SampleShift: rec.SampleShift(), Events: []TraceEvent{}}
	for _, ev := range rec.Events(f) {
		te := TraceEvent{
			TimeNs:   ev.TimeNs,
			FlowHash: fmt.Sprintf("0x%016x", ev.FlowHash),
			VNI:      uint32(ev.VNI),
			Device:   rec.DeviceName(ev.Dev),
			Stage:    ev.Stage.String(),
			Verdict:  ev.Verdict.String(),
		}
		if ev.Code != 0 {
			te.Reason = ev.Code.String()
		}
		out.Events = append(out.Events, te)
	}
	return out
}

// DropCount is one (stage, reason) cell of the cumulative drop tally.
type DropCount struct {
	Stage  string `json:"stage"`
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

// DropsResponse is the /debug/trace/drops body: the wrap-immune cumulative
// tallies, not the (bounded) ring contents.
type DropsResponse struct {
	Drops []DropCount `json:"drops"`
}

// BuildDrops materializes the recorder's cumulative drop tallies.
func BuildDrops(rec *trace.Recorder) DropsResponse {
	out := DropsResponse{Drops: []DropCount{}}
	if rec == nil {
		return out
	}
	for _, dc := range rec.DropCounts() {
		out.Drops = append(out.Drops, DropCount{
			Stage:  dc.Stage.String(),
			Reason: dc.Reason,
			Count:  dc.Count,
		})
	}
	return out
}

// HotFlow is one flow of the top-K, hottest first.
type HotFlow struct {
	Cluster  int     `json:"cluster"`
	VNI      uint32  `json:"vni"`
	FlowHash string  `json:"flowHash"`
	Packets  uint64  `json:"packets"`
	MaxErr   uint64  `json:"maxErr"`
	Share    float64 `json:"share"`
}

// HotRoute is one (VNI, inner-DIP) route entry that qualifies for XGW-H
// residency under the coverage target.
type HotRoute struct {
	Cluster int     `json:"cluster"`
	VNI     uint32  `json:"vni"`
	DIP     string  `json:"dip"`
	Packets uint64  `json:"packets"`
	MaxErr  uint64  `json:"maxErr"`
	Share   float64 `json:"share"`
}

// VNISkew is the water-level view of one tenant network.
type VNISkew struct {
	VNI      uint32  `json:"vni"`
	Packets  uint64  `json:"packets"`
	Bytes    uint64  `json:"bytes"`
	Share    float64 `json:"share"`
	HotShare float64 `json:"hotShare"`
}

// TopKResponse is the /topk body: the residency answer for the requested
// coverage target plus the flow top-K and the per-VNI skew summary.
type TopKResponse struct {
	TotalPackets     uint64     `json:"totalPackets"`
	TargetCoverage   float64    `json:"targetCoverage"`
	AchievedCoverage float64    `json:"achievedCoverage"`
	Routes           []HotRoute `json:"routes"`
	Flows            []HotFlow  `json:"flows"`
	VNIs             []VNISkew  `json:"vnis"`
}

// BuildTopK materializes the tracker's heavy-hitter views. coverage is the
// residency target (e.g. 0.95); n bounds the flow list (0 = all tracked).
func BuildTopK(hh *heavyhitter.Tracker, coverage float64, n int) TopKResponse {
	res := hh.HotEntries(coverage)
	out := TopKResponse{
		TotalPackets:     hh.TotalPackets(),
		TargetCoverage:   res.Target,
		AchievedCoverage: res.Achieved,
		Routes:           []HotRoute{},
		Flows:            []HotFlow{},
		VNIs:             []VNISkew{},
	}
	for _, e := range res.Entries {
		out.Routes = append(out.Routes, HotRoute{
			Cluster: e.Cluster, VNI: uint32(e.VNI), DIP: e.DIP.String(),
			Packets: e.Packets, MaxErr: e.MaxErr, Share: e.Share,
		})
	}
	for _, f := range hh.TopFlows(n) {
		out.Flows = append(out.Flows, HotFlow{
			Cluster: f.Cluster, VNI: uint32(f.VNI),
			FlowHash: fmt.Sprintf("0x%016x", f.FlowHash),
			Packets:  f.Packets, MaxErr: f.MaxErr, Share: f.Share,
		})
	}
	for _, s := range hh.VNISkewSummary() {
		out.VNIs = append(out.VNIs, VNISkew{
			VNI: uint32(s.VNI), Packets: s.Packets, Bytes: s.Bytes,
			Share: s.Share, HotShare: s.HotShare,
		})
	}
	return out
}

// PlacementEntry is one (VNI, DIP) key currently resident on a ladder rung
// ("hw" = XGW-H hardware, "dpu" = the SmartNIC warm tier).
type PlacementEntry struct {
	VNI          uint32  `json:"vni"`
	DIP          string  `json:"dip"`
	Cluster      int     `json:"cluster"`
	Tier         string  `json:"tier"`
	Share        float64 `json:"share"` // last measured window share
	ResidentAtNs int64   `json:"residentAtNs"`
}

// PlacementCycle is one residency cycle's outcome. The DPU fields are zero
// on a two-tier box (no warm rung attached).
type PlacementCycle struct {
	Cycle            uint64  `json:"cycle"`
	AtNs             int64   `json:"atNs"`
	EmptyWindow      bool    `json:"emptyWindow"`
	Promoted         int     `json:"promoted"`
	Demoted          int     `json:"demoted"`
	DeferredChurn    int     `json:"deferredChurn"`
	DeferredCapacity int     `json:"deferredCapacity"`
	Failed           int     `json:"failed"`
	ResidentKeys     int     `json:"residentKeys"`
	ResidentEntries  int     `json:"residentEntries"`
	DesiredEntries   int     `json:"desiredEntries"`
	HardwareShare    float64 `json:"hardwareShare"`

	PromotedDPU         int     `json:"promotedDPU"`
	DemotedDPU          int     `json:"demotedDPU"`
	Cascaded            int     `json:"cascaded"`
	Upgraded            int     `json:"upgraded"`
	DeferredChurnDPU    int     `json:"deferredChurnDPU"`
	DeferredCapacityDPU int     `json:"deferredCapacityDPU"`
	DPUResidentKeys     int     `json:"dpuResidentKeys"`
	DPUShare            float64 `json:"dpuShare"`
	StackShare          float64 `json:"stackShare"`
}

// PlacementTotals are the loop's lifetime counters.
type PlacementTotals struct {
	Cycles           uint64 `json:"cycles"`
	EmptyWindows     uint64 `json:"emptyWindows"`
	Promotions       uint64 `json:"promotions"`
	Demotions        uint64 `json:"demotions"`
	DeferredChurn    uint64 `json:"deferredChurn"`
	DeferredCapacity uint64 `json:"deferredCapacity"`
	Failures         uint64 `json:"failures"`

	PromotionsDPU       uint64 `json:"promotionsDPU"`
	DemotionsDPU        uint64 `json:"demotionsDPU"`
	Cascades            uint64 `json:"cascades"`
	Upgrades            uint64 `json:"upgrades"`
	DeferredChurnDPU    uint64 `json:"deferredChurnDPU"`
	DeferredCapacityDPU uint64 `json:"deferredCapacityDPU"`
}

// PlacementResponse is the /placement body: the effective policy, the last
// cycle's report, lifetime totals and the resident set.
type PlacementResponse struct {
	Enabled bool `json:"enabled"`
	// Ladder reports whether the loop runs the three-tier residency
	// ladder (a DPU warm rung sits between hardware and x86).
	Ladder          bool             `json:"ladder"`
	PromoteShare    float64          `json:"promoteShare"`
	DemoteShare     float64          `json:"demoteShare"`
	WarmShare       float64          `json:"warmShare"`
	WarmDemoteShare float64          `json:"warmDemoteShare"`
	CoverageTarget  float64          `json:"coverageTarget"`
	ChurnBudget     int              `json:"churnBudget"`
	DPUChurnBudget  int              `json:"dpuChurnBudget"`
	Last            PlacementCycle   `json:"last"`
	Totals          PlacementTotals  `json:"totals"`
	Resident        []PlacementEntry `json:"resident"`
}

// BuildPlacement materializes the residency loop's admin view. A nil loop
// (placement not enabled on this box) yields Enabled: false.
func BuildPlacement(lp *placement.Loop) PlacementResponse {
	out := PlacementResponse{Resident: []PlacementEntry{}}
	if lp == nil {
		return out
	}
	s := lp.Snapshot()
	out.Enabled = true
	out.Ladder = s.Ladder
	out.PromoteShare = s.Config.PromoteShare
	out.DemoteShare = s.Config.DemoteShare
	out.WarmShare = s.Config.WarmShare
	out.WarmDemoteShare = s.Config.WarmDemoteShare
	out.CoverageTarget = s.Config.CoverageTarget
	out.ChurnBudget = s.Config.ChurnBudget
	out.DPUChurnBudget = s.Config.DPUChurnBudget
	atNs := int64(0)
	if !s.Last.At.IsZero() {
		atNs = s.Last.At.UnixNano()
	}
	out.Last = PlacementCycle{
		Cycle: s.Last.Cycle, AtNs: atNs, EmptyWindow: s.Last.EmptyWindow,
		Promoted: s.Last.Promoted, Demoted: s.Last.Demoted,
		DeferredChurn: s.Last.DeferredChurn, DeferredCapacity: s.Last.DeferredCapacity,
		Failed:       s.Last.Failed,
		ResidentKeys: s.Last.ResidentKeys, ResidentEntries: s.Last.ResidentEntries,
		DesiredEntries: s.Last.DesiredEntries, HardwareShare: s.Last.HardwareShare,

		PromotedDPU: s.Last.PromotedDPU, DemotedDPU: s.Last.DemotedDPU,
		Cascaded: s.Last.Cascaded, Upgraded: s.Last.Upgraded,
		DeferredChurnDPU:    s.Last.DeferredChurnDPU,
		DeferredCapacityDPU: s.Last.DeferredCapacityDPU,
		DPUResidentKeys:     s.Last.DPUResidentKeys,
		DPUShare:            s.Last.DPUShare,
		StackShare:          s.Last.StackShare,
	}
	out.Totals = PlacementTotals{
		Cycles: s.Totals.Cycles, EmptyWindows: s.Totals.EmptyWindows,
		Promotions: s.Totals.Promotions,
		Demotions:  s.Totals.Demotions, DeferredChurn: s.Totals.DeferredChurn,
		DeferredCapacity: s.Totals.DeferredCapacity, Failures: s.Totals.Failures,

		PromotionsDPU: s.Totals.PromotionsDPU, DemotionsDPU: s.Totals.DemotionsDPU,
		Cascades: s.Totals.Cascades, Upgrades: s.Totals.Upgrades,
		DeferredChurnDPU:    s.Totals.DeferredChurnDPU,
		DeferredCapacityDPU: s.Totals.DeferredCapacityDPU,
	}
	for _, e := range s.Resident {
		out.Resident = append(out.Resident, PlacementEntry{
			VNI: uint32(e.VNI), DIP: e.DIP.String(), Cluster: e.Cluster,
			Tier:  e.Tier.String(),
			Share: e.Share, ResidentAtNs: e.ResidentAt.UnixNano(),
		})
	}
	return out
}

// VtraceRule is one installed match rule.
type VtraceRule struct {
	VNI uint32 `json:"vni"`
	Dst string `json:"dst,omitempty"` // empty = the whole VNI
}

// VtraceHop is one device postcard.
type VtraceHop struct {
	Device string `json:"device"`
	Seq    uint64 `json:"seq"`
	Action string `json:"action"`
	TimeNs int64  `json:"timeNs"`
}

// VtraceFlow is a traced flow's reconstructed path.
type VtraceFlow struct {
	VNI  uint32      `json:"vni"`
	Src  string      `json:"src"`
	Dst  string      `json:"dst"`
	Hops []VtraceHop `json:"hops"`
}

// VtraceFinding is one loss-localization conclusion.
type VtraceFinding struct {
	VNI    uint32 `json:"vni"`
	Src    string `json:"src"`
	Dst    string `json:"dst"`
	Kind   string `json:"kind"` // "drop" or "vanish"
	Where  string `json:"where"`
	Detail string `json:"detail"`
}

// VtraceResponse is the /vtrace body: installed rules, per-flow paths, and
// the collector's loss-localization findings.
type VtraceResponse struct {
	Rules    []VtraceRule    `json:"rules"`
	Flows    []VtraceFlow    `json:"flows"`
	Findings []VtraceFinding `json:"findings"`
}

// BuildVtrace materializes the collector's flow-path and loss-localization
// views. expectedHops is the healthy hop sequence used for vanish detection.
func BuildVtrace(m *telemetry.Matcher, c *telemetry.Collector, expectedHops []string) VtraceResponse {
	out := VtraceResponse{Rules: []VtraceRule{}, Flows: []VtraceFlow{}, Findings: []VtraceFinding{}}
	if m == nil || c == nil {
		return out
	}
	for _, r := range m.Rules() {
		vr := VtraceRule{VNI: uint32(r.VNI)}
		if r.Dst.IsValid() {
			vr.Dst = r.Dst.String()
		}
		out.Rules = append(out.Rules, vr)
	}
	for _, k := range c.Flows() {
		vf := VtraceFlow{
			VNI: uint32(k.VNI), Src: k.Src.String(), Dst: k.Dst.String(),
			Hops: []VtraceHop{},
		}
		for _, h := range c.Path(k) {
			vf.Hops = append(vf.Hops, VtraceHop{
				Device: h.Device, Seq: h.Seq, Action: h.Action, TimeNs: h.TimeNs,
			})
		}
		out.Flows = append(out.Flows, vf)
	}
	for _, f := range c.Diagnose(expectedHops) {
		out.Findings = append(out.Findings, VtraceFinding{
			VNI: uint32(f.Flow.VNI), Src: f.Flow.Src.String(), Dst: f.Flow.Dst.String(),
			Kind: f.Kind, Where: f.Where, Detail: f.Detail,
		})
	}
	return out
}

// SLOAlert is one firing burn-rate condition on a tenant.
type SLOAlert struct {
	VNI       uint32  `json:"vni"`
	Window    string  `json:"window"` // "fast" or "slow"
	Burn      float64 `json:"burn"`
	LossRatio float64 `json:"lossRatio"`
	Threshold float64 `json:"threshold"`
	SinceNs   int64   `json:"sinceNs"`
}

// SLOTenant is one VNI's evaluated SLI state: lifetime disposition ledger,
// both window burns, and coverage shares.
type SLOTenant struct {
	VNI             uint32 `json:"vni"`
	Attempted       uint64 `json:"attempted"`
	Forwarded       uint64 `json:"forwarded"`
	DPUServed       uint64 `json:"dpuServed"`
	Fallback        uint64 `json:"fallback"`
	FallbackMiss    uint64 `json:"fallbackMiss"`
	FallbackMissX86 uint64 `json:"fallbackMissX86"`
	Degraded        uint64 `json:"degraded"`
	Dropped         uint64 `json:"dropped"`

	FastLossRatio float64 `json:"fastLossRatio"`
	FastBurn      float64 `json:"fastBurn"`
	SlowLossRatio float64 `json:"slowLossRatio"`
	SlowBurn      float64 `json:"slowBurn"`

	StackCoverage float64 `json:"stackCoverage"`
	DPUMissShare  float64 `json:"dpuMissShare"`
	X86MissShare  float64 `json:"x86MissShare"`

	Alerts []SLOAlert `json:"alerts"`
}

// SLOHistoryPoint is one per-tick SLI delta in a tenant's retained series.
type SLOHistoryPoint struct {
	TimeNs        int64   `json:"timeNs"`
	LossRatio     float64 `json:"lossRatio"`
	StackCoverage float64 `json:"stackCoverage"`
	Attempted     uint64  `json:"attempted"`
	Dropped       uint64  `json:"dropped"`
}

// SLOResponse is the /slo body: the effective policy, engine counters, the
// gateway-global latency quantiles and every tracked tenant's state. A nil
// engine (SLO not enabled on this box) yields Enabled: false.
type SLOResponse struct {
	Enabled           bool        `json:"enabled"`
	TimeNs            int64       `json:"timeNs"`
	LossBudget        float64     `json:"lossBudget"`
	FastWindowNs      int64       `json:"fastWindowNs"`
	SlowWindowNs      int64       `json:"slowWindowNs"`
	FastBurnThreshold float64     `json:"fastBurnThreshold"`
	SlowBurnThreshold float64     `json:"slowBurnThreshold"`
	Ticks             uint64      `json:"ticks"`
	LatencyP50Ns      float64     `json:"latencyP50Ns"` // 0 when unknown (JSON has no NaN)
	LatencyP99Ns      float64     `json:"latencyP99Ns"`
	ActiveAlerts      int         `json:"activeAlerts"`
	Tenants           []SLOTenant `json:"tenants"`
}

// SLOTenantResponse is the /slo/{vni} body: one tenant's state plus its
// retained per-tick history. Found is false when the VNI is not tracked.
type SLOTenantResponse struct {
	Enabled bool              `json:"enabled"`
	Found   bool              `json:"found"`
	Tenant  SLOTenant         `json:"tenant"`
	History []SLOHistoryPoint `json:"history"`
}

// finite collapses NaN/Inf to 0: these encode "no observation yet" in the
// engine, and encoding/json refuses non-finite floats.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

func sloTenant(ts slo.TenantStatus) SLOTenant {
	out := SLOTenant{
		VNI:             uint32(ts.VNI),
		Attempted:       ts.Total.Attempted(),
		Forwarded:       ts.Total.Forwarded,
		DPUServed:       ts.Total.DPUServed,
		Fallback:        ts.Total.Fallback,
		FallbackMiss:    ts.Total.FallbackMiss,
		FallbackMissX86: ts.Total.FallbackMissX86,
		Degraded:        ts.Total.Degraded,
		Dropped:         ts.Total.Dropped,
		FastLossRatio:   finite(ts.FastLossRatio),
		FastBurn:        finite(ts.FastBurn),
		SlowLossRatio:   finite(ts.SlowLossRatio),
		SlowBurn:        finite(ts.SlowBurn),
		StackCoverage:   finite(ts.StackCoverage),
		DPUMissShare:    finite(ts.DPUMissShare),
		X86MissShare:    finite(ts.X86MissShare),
		Alerts:          []SLOAlert{},
	}
	for _, a := range ts.Alerts {
		out.Alerts = append(out.Alerts, SLOAlert{
			VNI: uint32(a.VNI), Window: a.Window.String(),
			Burn: finite(a.Burn), LossRatio: finite(a.LossRatio),
			Threshold: a.Threshold, SinceNs: a.SinceNs,
		})
	}
	return out
}

// BuildSLO materializes the engine's status for the admin plane.
func BuildSLO(e *slo.Engine) SLOResponse {
	out := SLOResponse{Tenants: []SLOTenant{}}
	if e == nil {
		return out
	}
	st := e.Snapshot()
	out.Enabled = true
	out.TimeNs = st.TimeNs
	out.LossBudget = st.LossBudget
	out.FastWindowNs = st.FastWindowNs
	out.SlowWindowNs = st.SlowWindowNs
	out.FastBurnThreshold = st.FastBurnThreshold
	out.SlowBurnThreshold = st.SlowBurnThreshold
	out.Ticks = st.Ticks
	out.LatencyP50Ns = finite(st.LatencyP50Ns)
	out.LatencyP99Ns = finite(st.LatencyP99Ns)
	for _, ts := range st.Tenants {
		t := sloTenant(ts)
		out.ActiveAlerts += len(t.Alerts)
		out.Tenants = append(out.Tenants, t)
	}
	return out
}

// BuildSLOTenant materializes one tenant's state and history.
func BuildSLOTenant(e *slo.Engine, vni uint32) SLOTenantResponse {
	out := SLOTenantResponse{History: []SLOHistoryPoint{}, Tenant: SLOTenant{Alerts: []SLOAlert{}}}
	if e == nil {
		return out
	}
	out.Enabled = true
	for _, ts := range e.Snapshot().Tenants {
		if uint32(ts.VNI) != vni {
			continue
		}
		out.Found = true
		out.Tenant = sloTenant(ts)
		break
	}
	for _, hp := range e.History(netpkt.VNI(vni)) {
		out.History = append(out.History, SLOHistoryPoint{
			TimeNs: hp.TimeNs, LossRatio: finite(hp.LossRatio),
			StackCoverage: finite(hp.StackCoverage),
			Attempted:     hp.Attempted, Dropped: hp.Dropped,
		})
	}
	return out
}

// JournalEvent is one ops-journal entry on the wire.
type JournalEvent struct {
	Seq     uint64 `json:"seq"`
	TimeNs  int64  `json:"timeNs"`
	Source  string `json:"source"`
	Kind    string `json:"kind"`
	VNI     uint32 `json:"vni,omitempty"`
	Cluster int    `json:"cluster"` // -1 when the event has no cluster scope
	Detail  string `json:"detail"`
}

// EventsResponse is the /events body: a journal tail plus the cursor state a
// follower needs — resume from LastSeq, notice loss via Dropped.
type EventsResponse struct {
	Enabled  bool           `json:"enabled"`
	LastSeq  uint64         `json:"lastSeq"`
	Appended uint64         `json:"appended"`
	Dropped  uint64         `json:"dropped"`
	Events   []JournalEvent `json:"events"`
}

// BuildEvents materializes the journal entries strictly after since (0 = from
// the oldest retained), at most max (0 = all retained).
func BuildEvents(j *slo.Journal, since uint64, max int) EventsResponse {
	out := EventsResponse{Events: []JournalEvent{}}
	if j == nil {
		return out
	}
	out.Enabled = true
	out.LastSeq = j.LastSeq()
	out.Appended = j.Appended()
	out.Dropped = j.Dropped()
	for _, e := range j.Since(since, max) {
		out.Events = append(out.Events, JournalEvent{
			Seq: e.Seq, TimeNs: e.TimeNs, Source: e.Source, Kind: e.Kind,
			VNI: uint32(e.VNI), Cluster: e.Cluster, Detail: e.Detail,
		})
	}
	return out
}

// SNATShard is one shard of the /snat view: occupancy, journal position
// and replication backlog.
type SNATShard struct {
	Shard        int    `json:"shard"`
	Live         int    `json:"live"`
	Slots        int    `json:"slots"`
	PortCapacity int    `json:"portCapacity"`
	JournalDepth uint64 `json:"journalDepth"`
	PendingDelta uint64 `json:"pendingDelta"`
	AwaitingSnap bool   `json:"awaitingSnap"`
}

// SNATResponse is the /snat body: the survivable session store's serving
// side, promotion accounting, replication health and per-shard detail.
type SNATResponse struct {
	OnBackup      bool        `json:"onBackup"`
	Sessions      int         `json:"sessions"`
	StandbySess   int         `json:"standbySessions"`
	MemoryBytes   uint64      `json:"memoryBytes"`
	Preserved     uint64      `json:"preserved"`
	Orphaned      uint64      `json:"orphaned"`
	Promotions    uint64      `json:"promotions"`
	DeltasApplied uint64      `json:"deltasApplied"`
	Snapshots     uint64      `json:"snapshots"`
	SnapshotGen   uint64      `json:"snapshotGeneration"`
	Retries       uint64      `json:"retries"`
	Gaps          uint64      `json:"gaps"`
	Failed        uint64      `json:"failed"`
	LagSeconds    float64     `json:"replicationLagSeconds"`
	Shards        []SNATShard `json:"shards"`
}

// BuildSNAT snapshots the session service for the admin plane. A nil
// service (a node with no SNAT role) renders as an empty response.
func BuildSNAT(svc *snat.Service) SNATResponse {
	out := SNATResponse{Shards: []SNATShard{}}
	if svc == nil {
		return out
	}
	rs := svc.ReplicationStats()
	out.OnBackup = svc.OnBackup()
	out.Sessions = svc.Sessions()
	out.StandbySess = svc.Standby().Sessions()
	out.MemoryBytes = svc.Active().MemoryBytes()
	out.Preserved = svc.Preserved()
	out.Orphaned = svc.Orphaned()
	out.Promotions = svc.Promotions()
	out.DeltasApplied = rs.DeltasApplied
	out.Snapshots = rs.Snapshots
	out.SnapshotGen = rs.SnapshotGeneration
	out.Retries = rs.Retries
	out.Gaps = rs.Gaps
	out.Failed = rs.Failed
	out.LagSeconds = rs.LagSeconds
	for _, h := range svc.ShardHealths() {
		out.Shards = append(out.Shards, SNATShard{
			Shard:        h.Shard,
			Live:         h.Live,
			Slots:        h.Slots,
			PortCapacity: h.PortCapacity,
			JournalDepth: h.JournalDepth,
			PendingDelta: h.PendingDelta,
			AwaitingSnap: h.AwaitingSnap,
		})
	}
	return out
}
