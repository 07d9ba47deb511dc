package trace

import (
	"testing"

	"sailfish/internal/netpkt"
)

func TestPackRoundTrip(t *testing.T) {
	ev := Event{
		TimeNs:   1234567890123,
		FlowHash: 0xdeadbeefcafef00d,
		VNI:      0xABCDEF,
		Dev:      513,
		Stage:    StageGateway,
		Verdict:  VerdictDrop,
		Code:     7,
	}
	if got := unpack(ev.pack()); got != ev {
		t.Fatalf("round trip: got %+v want %+v", got, ev)
	}
}

func TestRecordAndFilter(t *testing.T) {
	r := New(Config{Shards: 2, SlotsPerShard: 64})
	dev := r.InternDevice("xgwh-0")

	r.Record(Event{TimeNs: 10, FlowHash: 1, VNI: 100, Dev: dev, Stage: StageFront, Verdict: VerdictSteered})
	r.Record(Event{TimeNs: 20, FlowHash: 1, VNI: 100, Dev: dev, Stage: StageGateway, Verdict: VerdictForward})
	r.Record(Event{TimeNs: 30, FlowHash: 2, VNI: 200, Dev: dev, Stage: StageGateway, Verdict: VerdictDrop, Code: ReasonMeterExceeded})

	if got := len(r.Snapshot()); got != 3 {
		t.Fatalf("snapshot length = %d, want 3", got)
	}
	flow1 := r.Events(Filter{FlowHash: 1, MatchFlow: true})
	if len(flow1) != 2 || flow1[0].TimeNs != 10 || flow1[1].TimeNs != 20 {
		t.Fatalf("flow filter: %+v", flow1)
	}
	drops := r.Events(Filter{DropsOnly: true})
	if len(drops) != 1 || drops[0].VNI != 200 || drops[0].Code != ReasonMeterExceeded {
		t.Fatalf("drop filter: %+v", drops)
	}
	if got := r.Events(Filter{VNI: 100, MatchVNI: true}); len(got) != 2 {
		t.Fatalf("vni filter: %+v", got)
	}
	if got := r.Events(Filter{Stage: StageFront}); len(got) != 1 {
		t.Fatalf("stage filter: %+v", got)
	}
	if got := r.Events(Filter{Limit: 1}); len(got) != 1 || got[0].TimeNs != 30 {
		t.Fatalf("limit should keep the newest: %+v", got)
	}

	if n := r.DropTally(StageGateway, ReasonMeterExceeded); n != 1 {
		t.Fatalf("drop tally = %d", n)
	}
	dc := r.DropCounts()
	if len(dc) != 1 || dc[0].Reason != "meter_exceeded" || dc[0].Count != 1 {
		t.Fatalf("drop counts: %+v", dc)
	}
}

// The rings wrap, but cumulative drop tallies must not.
func TestWrapKeepsDropTallies(t *testing.T) {
	r := New(Config{Shards: 1, SlotsPerShard: 8})
	const total = 100
	for i := 0; i < total; i++ {
		r.Record(Event{TimeNs: int64(i), Stage: StageFallback, Verdict: VerdictDrop, Code: 1})
	}
	if got := len(r.Snapshot()); got != 8 {
		t.Fatalf("ring should hold exactly its capacity after wrap, got %d", got)
	}
	if n := r.DropTally(StageFallback, 1); n != total {
		t.Fatalf("cumulative tally = %d, want %d", n, total)
	}
	// The survivors must be the newest records.
	evs := r.Events(Filter{})
	if evs[0].TimeNs != total-8 || evs[len(evs)-1].TimeNs != total-1 {
		t.Fatalf("wrap kept wrong window: first=%d last=%d", evs[0].TimeNs, evs[len(evs)-1].TimeNs)
	}
}

func TestSampling(t *testing.T) {
	r := New(Config{SampleShift: 4}) // 1 in 16 flows
	var nilRec *Recorder
	if nilRec.Sampled(0) {
		t.Fatal("nil recorder must never sample")
	}
	nilRec.Record(Event{}) // must not panic
	if !r.Sampled(0x30) || r.Sampled(0x31) {
		t.Fatal("sampling must key on the low hash bits")
	}
	sampled := 0
	for h := uint64(0); h < 1024; h++ {
		if r.Sampled(h) {
			sampled++
		}
	}
	if sampled != 64 {
		t.Fatalf("1024 hashes at shift 4: sampled %d, want 64", sampled)
	}
	if all := New(Config{}); !all.Sampled(12345) {
		t.Fatal("shift 0 must sample every flow")
	}
}

func TestInterning(t *testing.T) {
	r := New(Config{})
	a := r.InternDevice("xgwh-0")
	b := r.InternDevice("xgwh-1")
	if a == b {
		t.Fatal("distinct devices must get distinct ids")
	}
	if again := r.InternDevice("xgwh-0"); again != a {
		t.Fatal("interning must be idempotent")
	}
	if got := r.DeviceName(b); got != "xgwh-1" {
		t.Fatalf("DeviceName = %q", got)
	}
	if got := r.DeviceName(999); got != "?" {
		t.Fatalf("unknown device = %q", got)
	}
	if got := StageFallback.String(); got != "fallback" {
		t.Fatalf("stage name = %q", got)
	}
	if got := VerdictSteered.String(); got != "steered" {
		t.Fatalf("verdict name = %q", got)
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	r := New(Config{Shards: 1, SlotsPerShard: 64})
	ev := Event{TimeNs: 1, FlowHash: 42, VNI: netpkt.VNI(7), Stage: StageGateway, Verdict: VerdictDrop, Code: 1}
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(ev) }); allocs != 0 {
		t.Fatalf("Record allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = r.Sampled(99) }); allocs != 0 {
		t.Fatalf("Sampled allocates %v/op, want 0", allocs)
	}
}

// BenchmarkRecord is the sampled-in publish: pack + seqlock store.
func BenchmarkRecord(b *testing.B) {
	r := New(Config{Shards: 4, SlotsPerShard: 1024})
	ev := Event{TimeNs: 1, FlowHash: 42, VNI: netpkt.VNI(7), Stage: StageGateway, Verdict: VerdictForward}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(ev)
	}
}

// BenchmarkSampledOut is the common fast-path branch: the sampling check
// that rejects most forwards before any ring work happens.
func BenchmarkSampledOut(b *testing.B) {
	r := New(Config{Shards: 4, SlotsPerShard: 1024, SampleShift: 10})
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		if r.Sampled(uint64(i)*2654435761 | 1) {
			n++
		}
	}
	_ = n
}

// TestDropTallyCoversEveryReason records one drop of every code in the
// reason space and reads each back by name: a tally array sized short of
// the space would lose the highest codes.
func TestDropTallyCoversEveryReason(t *testing.T) {
	r := New(Config{Shards: 1, SlotsPerShard: 64})
	for code := Reason(1); code < NumReasons; code++ {
		r.Record(Event{TimeNs: int64(code), Stage: StageFallback, Verdict: VerdictDrop, Code: code})
	}
	got := map[string]uint64{}
	for _, dc := range r.DropCounts() {
		got[dc.Reason] = dc.Count
	}
	for code := Reason(1); code < NumReasons; code++ {
		if got[code.String()] != 1 {
			t.Errorf("%v (code %d): tallied %d, want 1", code, code, got[code.String()])
		}
	}
	if len(got) != int(NumReasons)-1 {
		t.Fatalf("DropCounts has %d cells, want %d: %v", len(got), NumReasons-1, got)
	}
}
