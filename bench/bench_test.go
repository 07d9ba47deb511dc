package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.10, 1.4}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(v, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	if got := quantile([]float64{7}, 0.1); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestTrialPercentiles(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100-i) * 1000 // 100 µs down to 1 µs, unsorted
	}
	p50, p90, p99 := trialPercentiles(samples)
	if !near(p50, 50.5) || !near(p90, 90.1) || !near(p99, 99.01) {
		t.Errorf("percentiles of 1..100 µs = %v, %v, %v; want 50.5, 90.1, 99.01", p50, p90, p99)
	}
}

// quietTrial must shrug off a neighbour's bursts, however much of the trial
// they cover, and must count what the system itself does: a uniformly slower
// data path, and control-plane work that falls to a few of the slices only.
func TestQuietTrial(t *testing.T) {
	const slices = 64
	trial := func(floor float64, control func(slice int) float64) (fwd []float64, ctl float64) {
		for s := 0; s < slices; s++ {
			v := floor
			if s%7 != 3 { // a neighbour is busy in six slices out of seven
				v *= 1.3 + 0.01*float64(s%20)
			}
			fwd = append(fwd, v)
			ctl += control(s)
		}
		return fwd, ctl
	}
	none := func(int) float64 { return 0 }
	if got := quietTrial(trial(100, none)); !near(got, 100*slices) {
		t.Errorf("quietTrial under bursts = %v, want the quiet cost %v", got, 100*slices)
	}
	if got := quietTrial(trial(110, none)); !near(got, 110*slices) {
		t.Errorf("quietTrial of a 10 %% slower data path = %v, want %v", got, 110*slices)
	}
	lucky, _ := trial(100, none)
	lucky[3] = 60
	if got := quietTrial(lucky, 0); !near(got, 100*slices) {
		t.Errorf("quietTrial with one lucky slice = %v, want %v", got, 100*slices)
	}
	// One slice in sixteen carries a route update that splits a bucket: the
	// quiet slice is not one of them, and the cost must count all the same.
	split := func(s int) float64 {
		if s%16 == 5 {
			return 400
		}
		return 10
	}
	if got, want := quietTrial(trial(100, split)), 100.0*slices+4*400+60*10; !near(got, want) {
		t.Errorf("quietTrial with a costly update in 1 of 16 slices = %v, want %v", got, want)
	}
}

// The run's value is the p10 trial: one lucky trial does not set it, and
// neither do the disturbed ones.
func TestP10Trial(t *testing.T) {
	var fwd, ctl [][]float64
	for i := 0; i < 21; i++ {
		v := 100.0 + float64(i) // trial i costs 3·(100+i) + 5
		if i == 0 {
			v = 60 // the lucky one
		}
		fwd, ctl = append(fwd, []float64{v, v, v * 1.5}), append(ctl, []float64{2, 3, 0})
	}
	if got, want := p10Trial(fwd, ctl), 3*102.0+5; !near(got, want) {
		t.Errorf("p10Trial = %v, want the third-fastest trial of 21, %v", got, want)
	}
	if got, want := p10Trial(fwd, nil), 3*102.0; !near(got, want) {
		t.Errorf("p10Trial without control work = %v, want %v", got, want)
	}
}

// quietSum counts each stage of repeated work as its p10 visit.
func TestQuietSum(t *testing.T) {
	repeats := [][]float64{{1.0, 0.50, 0.3}, {1.2, 0.40, 0.3}, {1.1, 0.45, 0.9}}
	if got, want := quietSum(repeats), (1.0+0.2*0.1)+(0.40+0.2*0.05)+0.3; !near(got, want) {
		t.Errorf("quietSum = %v, want %v", got, want)
	}
	if got := quietSum(nil); !math.IsNaN(got) {
		t.Errorf("quietSum of no repeats = %v, want NaN", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newSpanRing(16)
	root, a, b := r.nameID("root"), r.nameID("a"), r.nameID("b")
	if again := r.nameID("a"); again != a {
		t.Fatalf("nameID not stable: %d then %d", a, again)
	}
	p := r.add(root, -1, 0, 0, 100)
	r.add(a, p, 0, 10, 30)
	r.add(b, p, 0, 40, 80)
	q := r.add(root, -1, 1, 100, 150)
	r.add(a, q, 1, 100, 150)
	total, self, count := r.selfTimes()
	if total[root] != 150 || self[root] != 40 || count[root] != 2 {
		t.Errorf("root: total %d self %d count %d; want 150, 40, 2", total[root], self[root], count[root])
	}
	if total[a] != 70 || self[a] != 70 || total[b] != 40 {
		t.Errorf("children: a total %d self %d, b total %d; want 70, 70, 40", total[a], self[a], total[b])
	}
}

// When the ring wraps, a child whose parent was overwritten must not be
// charged to whatever span now sits in the parent's slot.
func TestSpanRingWrap(t *testing.T) {
	r := newSpanRing(4)
	root, kid := r.nameID("root"), r.nameID("kid")
	p := r.add(root, -1, 0, 0, 100)
	for i := 0; i < 4; i++ {
		r.add(kid, p, 0, int64(10*i), int64(10*i+5)) // the fourth overwrites the root
	}
	first, spans := r.live()
	if first != 1 || len(spans) != 4 {
		t.Fatalf("live() = first %d, %d spans; want 1, 4", first, len(spans))
	}
	total, self, count := r.selfTimes()
	if count[root] != 0 || total[kid] != 20 || self[kid] != 20 {
		t.Errorf("after wrap: root count %d, kid total %d self %d; want 0, 20, 20", count[root], total[kid], self[kid])
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 4 {
		t.Errorf("trace file has %d lines, want 4", n)
	}
}

func poolDigest(in *inputs) [32]byte {
	h := sha256.New()
	for i, f := range in.frames {
		h.Write(f)
		nc := in.expect[i].nc.AsSlice()
		h.Write(nc)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestSeedDeterminism(t *testing.T) {
	for name, gen := range map[string]func(int64) *inputs{"hit": genHit, "ladder": genLadder, "wire": genWire} {
		a, b, c := gen(7), gen(7), gen(8)
		if poolDigest(a) != poolDigest(b) {
			t.Errorf("%s: same seed, different frame pool", name)
		}
		if poolDigest(a) == poolDigest(c) {
			t.Errorf("%s: different seeds, same frame pool", name)
		}
	}
	a, b := genLadder(7), genLadder(7)
	sa, sb := a.trialSeq(3, 4096, nil), b.trialSeq(3, 4096, nil)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("ladder trial order differs at %d for one seed", i)
		}
	}
	cfg := func(seed int64) []byte {
		w := &wireRig{in: genWire(seed), sink: &udpSock{port: 9}}
		raw, err := w.daemonConfig(4789)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(cfg(7), cfg(7)) {
		t.Error("same seed, different daemon config")
	}
	if bytes.Equal(cfg(7), cfg(8)) {
		t.Error("different seeds, same daemon config")
	}
}

// The oracle must reject a packet that differs from the expectation in any of
// the ways it claims to check.
func TestOracleRejects(t *testing.T) {
	in := genHit(1)
	s, err := buildRegion("region-hit-64b", in, observeNone)
	if err != nil {
		t.Fatal(err)
	}
	sent, e := in.frames[0], in.expect[0]
	r, err := s.d.DeliverVXLANAt(sent, s.clock)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), r.GW.Out...)
	if !outerOK(out, sent, e) {
		t.Fatal("oracle rejects a correctly forwarded packet")
	}
	for name, at := range map[string]int{"outer source": 27, "outer destination (NC)": 33, "VNI": outerLen + 5,
		"inner header": innerIPOff + 12, "payload": len(out) - 1} {
		bad := append([]byte(nil), out...)
		bad[at] ^= 0x01
		if outerOK(bad, sent, e) {
			t.Errorf("oracle accepts a packet with a wrong %s", name)
		}
	}
	if outerOK(out[:len(out)-1], sent, e) {
		t.Error("oracle accepts a truncated packet")
	}
}

func TestRegionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every in-process workload")
	}
	for _, spec := range regionSpecs {
		spec.warmTrials, spec.trialPackets = 1, 65536
		in := spec.gen(1)
		s, stages, err := setUpRegion(spec, in, workloadObservers(spec.name))
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		var tiers [4]int
		for trial := 1; trial <= 2; trial++ {
			res, err := s.runTrial(trial, spec.trialPackets)
			if err != nil {
				t.Fatalf("%s trial %d: %v", spec.name, trial, err)
			}
			if res.failed != 0 {
				t.Errorf("%s trial %d: %d of %d packets failed the oracle", spec.name, trial, res.failed, res.packets)
			}
			if want := spec.trialPackets / (sliceBatches * batchSize); len(res.fwdNs) != want || len(res.ctlNs) != want || res.cpuShare <= 0 {
				t.Errorf("%s trial %d: %d forwarding and %d control slices (want %d), CPU share %v", spec.name, trial, len(res.fwdNs), len(res.ctlNs), want, res.cpuShare)
			}
			if (total(res.ctlNs) > 0) != (spec.name != "region-hit-64b") {
				t.Errorf("%s trial %d: control-plane time %v", spec.name, trial, total(res.ctlNs))
			}
			if len(stages) != 1+len(res.fwdNs) || stages[0] <= 0 {
				t.Errorf("%s: %d set-up stages, want the build and the %d slices of one warm-up trial", spec.name, len(stages), len(res.fwdNs))
			}
			for i := range tiers {
				tiers[i] += res.tiers[i]
			}
		}
		if failed := s.verifyPool(); failed != 0 {
			t.Errorf("%s: %d of %d pool frames failed the byte-level check", spec.name, failed, len(in.frames))
		}
		if spec.name == "region-ladder-zipf" && (tiers[tierHW] == 0 || tiers[tierDPU] == 0 || tiers[tierX86] == 0) {
			t.Errorf("ladder traffic did not reach every tier: %v", tiers)
		}
		if spec.name != "region-ladder-zipf" && tiers[tierHW] != 2*spec.trialPackets {
			t.Errorf("%s: tiers %v, want every packet on XGW-H", spec.name, tiers)
		}
	}
}

// TestWireSmoke drives the real daemon and the reflector over loopback. It
// checks that packets come back right, not how fast: the box may be busy.
func TestWireSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts sailfish-gw")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	dir := t.TempDir()
	o := options{gw: filepath.Join(dir, "sailfish-gw"), echo: filepath.Join(dir, "echo"), workDir: dir}
	for bin, pkg := range map[string]string{o.gw: "sailfish/cmd/sailfish-gw", o.echo: "sailfish/bench/cmd/echo"} {
		if out, err := exec.Command(goBin, "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	w, err := newWireRig(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.startDaemon(); err != nil {
		t.Fatal(err)
	}
	sent, failed := 0, 0
	for trial := 0; trial < 2; trial++ {
		c, err := w.closedTrial(4096)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.pacedTrial(1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.segNs) != 4096/(closedSliceWindows*batchSize) || p.p50 <= 0 {
			t.Errorf("trial %d: %d closed slices, paced p50 %v", trial, len(c.segNs), p.p50)
		}
		sent, failed = sent+c.sent+p.sent, failed+c.failed+p.failed
	}
	if failed*100 > sent {
		t.Errorf("%d of %d datagrams lost or wrong; daemon says: %s", failed, sent, w.target.logs.String())
	}
	if _, ok := w.received(w.payloads[0][:20]); ok {
		t.Error("sink check accepts a truncated datagram")
	}
	if rate, _, err := w.echoCheck(1); err != nil || rate <= 0 {
		t.Errorf("reflector check: rate %v, err %v", rate, err)
	}
}
