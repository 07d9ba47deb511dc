// Package trace is the per-packet flight recorder behind /debug/trace and
// `sailfish-ctl trace` (ISSUE 4): a sampled, lock-free record of individual
// packet verdicts across the pipeline. The aggregate /metrics plane answers
// "how many packets dropped" — this package answers §3.1's Vtrace question,
// "where did THIS tenant's flow get dropped, and why", without giving up the
// 0 allocs/op forward path.
//
// Design:
//
//   - Events are fixed-size (three 64-bit words) and fully interned: stage,
//     verdict, drop reason and device are small integer codes; names are
//     resolved only at query time. Recording a packet never allocates and
//     never takes a lock.
//   - Storage is a set of sharded ring buffers. A writer claims a slot with
//     a single atomic add on its shard's position counter, then publishes
//     the record under a per-slot sequence word (seqlock style: odd while
//     writing, even when stable). Readers copy the words and re-validate the
//     sequence; a record overwritten mid-read is simply skipped. Every slot
//     access is atomic, so the race detector stays quiet and torn reads are
//     impossible by construction.
//   - Forward traffic is sampled deterministically by flow hash
//     (hash & mask == 0), so a sampled flow is sampled at EVERY stage and a
//     per-flow timeline can be stitched from one capture. Drops are always
//     recorded, sampled or not.
//   - Alongside the rings the recorder keeps cumulative per-stage,
//     per-reason drop tallies. The rings wrap; the tallies do not, which is
//     what lets tests reconcile recorder output against the interned drop
//     counters from the stats plane (drop-accounting parity).
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sailfish/internal/netpkt"
)

// Stage identifies the pipeline layer that emitted an event.
type Stage uint8

const (
	// StageFront is the region front end (ECMP steering).
	StageFront Stage = 1 + iota
	// StageGateway is the XGW-H hardware pipeline.
	StageGateway
	// StageFallback is the XGW-x86 software pool.
	StageFallback
	// StageDPU is the SmartNIC/DPU middle tier between the XGW-H hardware
	// and the x86 pool.
	StageDPU

	numStages = 5 // stage codes are 1-based; index 0 unused
)

var stageName = [numStages]string{"", "front", "gateway", "fallback", "dpu"}

// String returns the stage's wire name ("front", "gateway", ...).
func (s Stage) String() string {
	if int(s) < len(stageName) {
		return stageName[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Verdict is the outcome the stage reached for the packet.
type Verdict uint8

const (
	// VerdictForward: the packet left the stage rewritten toward its NC.
	VerdictForward Verdict = 1 + iota
	// VerdictFallback: the stage punted the packet to the x86 pool.
	VerdictFallback
	// VerdictDrop: the packet died here; Code says why.
	VerdictDrop
	// VerdictSteered: the front end picked a node and handed the
	// packet on (the hop between steering and the gateway verdict).
	VerdictSteered

	numVerdicts = 5
)

var verdictName = [numVerdicts]string{"", "forward", "fallback", "drop", "steered"}

// String returns the verdict's wire name.
func (v Verdict) String() string {
	if int(v) < len(verdictName) {
		return verdictName[v]
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// maxReasons bounds per-stage drop-reason codes (codes are 1-based and every
// subsystem in the tree is well under this today).
const maxReasons = 16

// Event is one flight-recorder record. It packs into three 64-bit words:
//
//	w0  TimeNs
//	w1  FlowHash
//	w2  VNI(32) | Dev(16) | Stage(4) | Verdict(4) | Code(8)
type Event struct {
	TimeNs   int64      // virtual-clock nanoseconds at the verdict
	FlowHash uint64     // inner 5-tuple FNV hash; 0 when unparseable
	VNI      netpkt.VNI // tenant network; 0 when unparseable
	Dev      uint16     // interned device id (see InternDevice)
	Stage    Stage
	Verdict  Verdict
	Code     uint8 // stage-local drop reason; 0 unless Verdict is drop
}

func (e Event) pack() (w0, w1, w2 uint64) {
	w0 = uint64(e.TimeNs)
	w1 = e.FlowHash
	w2 = uint64(e.VNI)<<32 | uint64(e.Dev)<<16 |
		uint64(e.Stage&0xf)<<12 | uint64(e.Verdict&0xf)<<8 | uint64(e.Code)
	return
}

func unpack(w0, w1, w2 uint64) Event {
	return Event{
		TimeNs:   int64(w0),
		FlowHash: w1,
		VNI:      netpkt.VNI(w2 >> 32),
		Dev:      uint16(w2 >> 16),
		Stage:    Stage(w2 >> 12 & 0xf),
		Verdict:  Verdict(w2 >> 8 & 0xf),
		Code:     uint8(w2),
	}
}

// slot is one ring entry: a sequence word plus the packed event. seq==0
// means never written; odd means a writer is mid-publish; even and nonzero
// means the words hold the record published at position (seq-2)/2.
type slot struct {
	seq atomic.Uint64
	w   [3]atomic.Uint64
}

type shard struct {
	pos  atomic.Uint64
	_    [7]uint64 // keep neighbouring shards off one cache line
	ring []slot
}

// Config sizes a Recorder.
type Config struct {
	// Shards is the number of independent rings (rounded up to a power of
	// two, default 8). Writers pick a shard from high flow-hash bits, so
	// concurrent workers rarely contend on a position counter.
	Shards int
	// SlotsPerShard is each ring's capacity (rounded up to a power of two,
	// default 4096).
	SlotsPerShard int
	// SampleShift selects forward-path sampling: a flow is captured iff the
	// low SampleShift bits of its hash are zero, i.e. 1-in-2^shift flows.
	// 0 captures every flow. Drops ignore sampling entirely.
	SampleShift uint
}

// Recorder is the flight recorder. A nil *Recorder is a valid "tracing
// disabled" recorder: Sampled reports false and Record is a no-op.
type Recorder struct {
	shards     []shard
	shardMask  uint64
	slotMask   uint64
	sampleMask uint64
	shift      uint

	// Cumulative drop tallies, immune to ring wrap (see package comment).
	dropTally [numStages][maxReasons]atomic.Uint64

	// Interning tables: written at wiring time, read at query time, never
	// touched by Record.
	mu      sync.Mutex
	devs    []string // index = device id; devs[0] = ""
	devIdx  map[string]uint16
	reasons [numStages][]string // reasons[st][i] names code i+1
}

func ceilPow2(n, def int) int {
	if n <= 0 {
		n = def
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a Recorder. The zero Config gives 8 shards x 4096 slots
// sampling every flow.
func New(cfg Config) *Recorder {
	shards := ceilPow2(cfg.Shards, 8)
	slots := ceilPow2(cfg.SlotsPerShard, 4096)
	r := &Recorder{
		shards:     make([]shard, shards),
		shardMask:  uint64(shards - 1),
		slotMask:   uint64(slots - 1),
		sampleMask: 1<<cfg.SampleShift - 1,
		shift:      cfg.SampleShift,
		devs:       []string{""},
		devIdx:     map[string]uint16{"": 0},
	}
	for i := range r.shards {
		r.shards[i].ring = make([]slot, slots)
	}
	return r
}

// SampleShift reports the configured forward-path sampling shift.
func (r *Recorder) SampleShift() uint {
	if r == nil {
		return 0
	}
	return r.shift
}

// Sampled reports whether forward-path events for this flow hash are being
// captured. Deterministic: the same flow answers the same at every stage.
// False on a nil (disabled) recorder.
func (r *Recorder) Sampled(flowHash uint64) bool {
	return r != nil && flowHash&r.sampleMask == 0
}

// Record appends an event. Lock-free, allocation-free, safe from any number
// of goroutines; a no-op on a nil recorder. Callers gate forward-path events
// on Sampled themselves (so the hash computation can be skipped when tracing
// is off); drop events should be recorded unconditionally.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.Verdict == VerdictDrop && int(ev.Stage) < numStages && ev.Code < maxReasons {
		r.dropTally[ev.Stage][ev.Code].Add(1)
	}
	// Shard on high hash bits: independent of the low bits sampling keys on,
	// so sampled traffic still spreads across rings.
	sh := &r.shards[(ev.FlowHash>>21)&r.shardMask]
	pos := sh.pos.Add(1) - 1
	s := &sh.ring[pos&r.slotMask]
	w0, w1, w2 := ev.pack()
	s.seq.Store(pos*2 + 1) // odd: publishing
	s.w[0].Store(w0)
	s.w[1].Store(w1)
	s.w[2].Store(w2)
	s.seq.Store(pos*2 + 2) // even: stable
}

// Filter selects events for Events. The zero Filter matches everything
// still live in the rings.
type Filter struct {
	FlowHash  uint64 // exact flow-hash match when MatchFlow
	MatchFlow bool
	VNI       netpkt.VNI // exact VNI match when MatchVNI
	MatchVNI  bool
	DropsOnly bool
	Stage     Stage // 0 = any
	Limit     int   // cap on returned events; 0 = unlimited
}

// Events snapshots the rings and returns matching events ordered by
// timestamp (ties broken by pipeline stage order). Records overwritten
// while being read are skipped — the recorder is a diagnostic ring, not a
// loss-free log.
func (r *Recorder) Events(f Filter) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for si := range r.shards {
		sh := &r.shards[si]
		for i := range sh.ring {
			s := &sh.ring[i]
			seq := s.seq.Load()
			if seq == 0 || seq&1 == 1 {
				continue // never written, or a writer is mid-publish
			}
			w0 := s.w[0].Load()
			w1 := s.w[1].Load()
			w2 := s.w[2].Load()
			if s.seq.Load() != seq {
				continue // lapped mid-read
			}
			ev := unpack(w0, w1, w2)
			if f.MatchFlow && ev.FlowHash != f.FlowHash {
				continue
			}
			if f.MatchVNI && ev.VNI != f.VNI {
				continue
			}
			if f.DropsOnly && ev.Verdict != VerdictDrop {
				continue
			}
			if f.Stage != 0 && ev.Stage != f.Stage {
				continue
			}
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeNs != out[j].TimeNs {
			return out[i].TimeNs < out[j].TimeNs
		}
		return out[i].Stage < out[j].Stage
	})
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:] // keep the newest
	}
	return out
}

// Snapshot returns every live event (Events with a zero Filter).
func (r *Recorder) Snapshot() []Event { return r.Events(Filter{}) }

// DropCount is one cumulative (stage, reason) drop cell.
type DropCount struct {
	Stage  Stage
	Code   uint8
	Reason string
	Count  uint64
}

// DropCounts returns the nonzero cumulative drop tallies in stage order.
// Unlike Events, these never wrap, so they reconcile exactly against the
// stats plane's per-reason counters.
func (r *Recorder) DropCounts() []DropCount {
	if r == nil {
		return nil
	}
	var out []DropCount
	for st := Stage(1); st < numStages; st++ {
		for code := 0; code < maxReasons; code++ {
			n := r.dropTally[st][code].Load()
			if n == 0 {
				continue
			}
			out = append(out, DropCount{
				Stage:  st,
				Code:   uint8(code),
				Reason: r.ReasonName(st, uint8(code)),
				Count:  n,
			})
		}
	}
	return out
}

// MergeDropCounts sums cumulative drop tallies across recorders — the
// scrape-side view of a sharded plane where each shard records into its own
// recorder. Reason names resolve through the first non-nil recorder; shard
// recorders are wired with identical taxonomies (same SetReasonNames calls
// in the same order), so any of them names every cell. Nil recorders are
// skipped.
func MergeDropCounts(recs ...*Recorder) []DropCount {
	var named *Recorder
	var tally [numStages][maxReasons]uint64
	for _, r := range recs {
		if r == nil {
			continue
		}
		if named == nil {
			named = r
		}
		for st := Stage(1); st < numStages; st++ {
			for code := 0; code < maxReasons; code++ {
				tally[st][code] += r.dropTally[st][code].Load()
			}
		}
	}
	var out []DropCount
	for st := Stage(1); st < numStages; st++ {
		for code := 0; code < maxReasons; code++ {
			n := tally[st][code]
			if n == 0 {
				continue
			}
			out = append(out, DropCount{
				Stage:  st,
				Code:   uint8(code),
				Reason: named.ReasonName(st, uint8(code)),
				Count:  n,
			})
		}
	}
	return out
}

// MergeEvents snapshots every recorder's rings and returns the union of
// matching events in one timestamp-ordered stream, applying f.Limit to the
// merged result (keeping the newest). Nil recorders are skipped.
func MergeEvents(f Filter, recs ...*Recorder) []Event {
	limit := f.Limit
	f.Limit = 0
	var out []Event
	for _, r := range recs {
		out = append(out, r.Events(f)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeNs != out[j].TimeNs {
			return out[i].TimeNs < out[j].TimeNs
		}
		return out[i].Stage < out[j].Stage
	})
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// DropTally returns one cumulative cell directly (test hook for parity
// checks).
func (r *Recorder) DropTally(st Stage, code uint8) uint64 {
	if r == nil || int(st) >= numStages || code >= maxReasons {
		return 0
	}
	return r.dropTally[st][code].Load()
}

// InternDevice maps a device name ("xgwh-3", "xgw86-0", "frontend") to a
// small id for event records. Idempotent; intended for wiring time, not the
// hot path.
func (r *Recorder) InternDevice(name string) uint16 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.devIdx[name]; ok {
		return id
	}
	id := uint16(len(r.devs))
	r.devs = append(r.devs, name)
	r.devIdx[name] = id
	return id
}

// DeviceName resolves an interned device id; unknown ids come back as "?".
func (r *Recorder) DeviceName(id uint16) string {
	if r == nil {
		return "?"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < len(r.devs) {
		return r.devs[id]
	}
	return "?"
}

// SetReasonNames installs a stage's drop-reason table: names[i] names code
// i+1 (code 0 is "none" and never appears in a drop event). Each subsystem
// registers its own interned taxonomy at wiring time.
func (r *Recorder) SetReasonNames(st Stage, names []string) {
	if r == nil || int(st) >= numStages {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reasons[st] = append([]string(nil), names...)
}

// ReasonName resolves a stage-local drop code to its registered name.
func (r *Recorder) ReasonName(st Stage, code uint8) string {
	if r == nil || int(st) >= numStages {
		return "?"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := r.reasons[st]
	if code >= 1 && int(code) <= len(names) {
		return names[code-1]
	}
	return fmt.Sprintf("code(%d)", code)
}
