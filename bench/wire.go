package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The wire workload drives sailfish-gw, the deployable artefact, as a
// subprocess in serial mode over the host's loopback interface. The generator
// is one goroutine on one locked thread that busy-polls non-blocking sockets,
// so the box's two cores carry exactly two busy threads: the generator and
// the daemon. Every NC's underlay address points at one sink socket.

// Frozen wire trial sizes.
const (
	wireClosedDatagrams = 32768                  // closed trial: windows of 32, send 32 then collect 32
	wirePairsPerMinute  = 60                     // closed+paced trial pairs; see options.trialCount
	wireLateLimitUs     = 50                     // median generator lateness above this spoils a paced trial
	wirePacedDatagrams  = 1000                   // paced trial: open loop at wirePacedRate, timed from due time
	wireWarmDatagrams   = 262144                 // closed-loop warm-up, part of set-up
	wireGiveUp          = time.Second            // a datagram not back by then is lost, closed or paced
	pacedMaxCatchUp     = 32                     // intervals the paced generator may fall behind before its schedule slips
	wireSeqAt           = vxlanLen + 14 + 20 + 8 // offset of the inner payload in a socket payload
)

// udpSock is a non-blocking IPv4 UDP socket on loopback, used through raw
// system calls so a poll costs one syscall and no allocation.
type udpSock struct {
	fd   int
	port int
}

func newUDPSock() (*udpSock, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	s := &udpSock{fd: fd}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		s.close()
		return nil, fmt.Errorf("bind: %w", err)
	}
	// Best effort: room for a whole paced trial should the reader stall.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<20)
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("getsockname: %w", err)
	}
	s.port = sa.(*syscall.SockaddrInet4).Port
	return s, nil
}

func (s *udpSock) connect(port int) error {
	return syscall.Connect(s.fd, &syscall.SockaddrInet4{Port: port, Addr: [4]byte{127, 0, 0, 1}})
}

func (s *udpSock) close() { syscall.Close(s.fd) }

// send spins while the socket buffer is full; loopback drains it at once.
func (s *udpSock) send(b []byte) error {
	for {
		_, err := syscall.Write(s.fd, b)
		if err != syscall.EAGAIN && err != syscall.EINTR {
			return err
		}
	}
}

// poll returns one datagram if one is waiting, 0 otherwise.
func (s *udpSock) poll(buf []byte) (int, error) {
	n, err := syscall.Read(s.fd, buf)
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return 0, nil
	}
	return n, err
}

// freePort asks the kernel for an unused loopback UDP port.
func freePort() (int, error) {
	s, err := newUDPSock()
	if err != nil {
		return 0, err
	}
	defer s.close()
	return s.port, nil
}

// child is a subprocess the harness started and will stop.
type child struct {
	cmd  *exec.Cmd
	logs *tailBuffer
	done chan struct{}
}

// tailBuffer keeps the last few KiB of a child's stderr for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	t.buf = append(t.buf, line...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	t.mu.Unlock()
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// startChild runs bin on the target CPU and waits until its stderr shows
// ready. Stderr keeps being drained until exit.
func (w *wireRig) startChild(ready string, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	// Should the harness die without stopping the child, the kernel does it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	// The child inherits the affinity of the thread that starts it: the
	// target gets one CPU to itself, the generator goes back to the other.
	if err := w.pin(w.targetCPU); err != nil {
		return nil, err
	}
	err = cmd.Start()
	if perr := w.pin(w.genCPU); perr != nil && err == nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, perr
	}
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, logs: &tailBuffer{}, done: make(chan struct{})}
	readyCh := make(chan struct{})
	go func() {
		defer close(c.done)
		r := bufio.NewReader(stderr)
		signalled := false
		for {
			line, err := r.ReadString('\n')
			c.logs.add(line)
			if !signalled && strings.Contains(line, ready) {
				signalled = true
				close(readyCh)
			}
			if err != nil {
				if !signalled {
					close(readyCh)
				}
				return
			}
		}
	}()
	select {
	case <-readyCh:
	case <-time.After(20 * time.Second):
	}
	if !strings.Contains(c.logs.String(), ready) {
		c.stop()
		return nil, fmt.Errorf("%s did not become ready: %s", filepath.Base(bin), c.logs.String())
	}
	return c, nil
}

// stop kills the child and waits until it has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Kill()
	<-c.done
	_ = c.cmd.Wait()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// wireRig is the generator side of the wire workload.
type wireRig struct {
	in       *inputs
	payloads [][]byte // what goes on the socket: VXLAN header + inner frame
	gwBin    string
	echoBin  string
	dir      string // scratch directory for the daemon config
	gen      *udpSock
	sink     *udpSock
	target   *child // daemon or reflector currently under the generator
	// The generator thread's affinity when the rig was made, and the two CPUs
	// of it the rig pins to; with a single CPU to run on nobody is pinned.
	home              cpuMask
	targetCPU, genCPU int
	pinned            bool
	seq               uint64
	rbuf              []byte
	walk              []uint32
	lat               []float64
	late              []float64
	ring              *spanRing // non-nil in traced closed trials
}

// newWireRig locks the calling goroutine to its OS thread — the generator
// thread, pinned to one CPU whenever a target runs on another — until close.
func newWireRig(o options, seed int64) (*wireRig, error) {
	if o.gw == "" || o.echo == "" {
		return nil, errors.New("the wire probes need --gw and --echo (bench/run.sh builds and passes them)")
	}
	runtime.LockOSThread()
	home, err := threadAffinity()
	if err != nil {
		runtime.UnlockOSThread()
		return nil, err
	}
	w := &wireRig{in: genWire(seed), gwBin: o.gw, echoBin: o.echo, rbuf: make([]byte, 2048), home: home}
	if cpus := home.cpus(); len(cpus) >= 2 {
		w.targetCPU, w.genCPU, w.pinned = cpus[0], cpus[1], true
	}
	for i, f := range w.in.frames {
		p := append([]byte(nil), f[outerLen:]...)
		binary.BigEndian.PutUint32(p[wireSeqAt+8:], uint32(i))
		w.payloads = append(w.payloads, p)
	}
	if err = os.MkdirAll(o.workDir, 0o755); err == nil {
		w.dir, err = os.MkdirTemp(o.workDir, "wire-")
	}
	if err != nil {
		runtime.UnlockOSThread()
		return nil, err
	}
	if w.gen, err = newUDPSock(); err == nil {
		w.sink, err = newUDPSock()
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *wireRig) close() {
	if w.target != nil {
		w.target.stop()
		w.target = nil
	}
	if w.gen != nil {
		w.gen.close()
	}
	if w.sink != nil {
		w.sink.close()
	}
	os.RemoveAll(w.dir)
	if w.pinned {
		_ = setThreadAffinity(w.home) // best effort: the thread goes back to the runtime's pool
	}
	runtime.UnlockOSThread()
}

// pin moves the generator thread to one CPU.
func (w *wireRig) pin(cpu int) error {
	if !w.pinned {
		return nil
	}
	return setThreadAffinity(oneCPU(cpu))
}

// daemonConfig is sailfish-gw's JSON config, built from the tenant map.
func (w *wireRig) daemonConfig(listenPort int) ([]byte, error) {
	type tenant struct {
		VNI    uint32            `json:"vni"`
		Prefix string            `json:"prefix"`
		VMs    map[string]string `json:"vms"`
	}
	cfg := struct {
		GatewayIP string            `json:"gatewayIP"`
		Listen    string            `json:"listen"`
		Underlay  map[string]string `json:"underlay"`
		Tenants   []tenant          `json:"tenants"`
		SLO       struct {
			TickMs int `json:"tickMs"`
		} `json:"slo"`
	}{GatewayIP: gatewayIP.String(), Listen: fmt.Sprintf("127.0.0.1:%d", listenPort), Underlay: map[string]string{}}
	cfg.SLO.TickMs = 1000
	sink := fmt.Sprintf("127.0.0.1:%d", w.sink.port)
	for _, t := range w.in.tenants {
		jt := tenant{VNI: uint32(t.vni), Prefix: t.prefix.String(), VMs: map[string]string{}}
		for i, vm := range t.vms {
			jt.VMs[vm.String()] = t.ncs[i].String()
			cfg.Underlay[t.ncs[i].String()] = sink
		}
		cfg.Tenants = append(cfg.Tenants, jt)
	}
	return json.Marshal(cfg) // map keys are emitted sorted: same seed, same bytes, bar the two ports
}

// startDaemon is the daemon half of set-up: config, start, wait until ready.
func (w *wireRig) startDaemon() error {
	port, err := freePort()
	if err != nil {
		return err
	}
	raw, err := w.daemonConfig(port)
	if err != nil {
		return err
	}
	path := filepath.Join(w.dir, "gw.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	if w.target, err = w.startChild("serving on", w.gwBin, "-config", path); err != nil {
		return err
	}
	return w.gen.connect(port)
}

func (w *wireRig) startEcho() error {
	port, err := freePort()
	if err != nil {
		return err
	}
	w.target, err = w.startChild("echo: serving", w.echoBin,
		fmt.Sprintf("127.0.0.1:%d", port), fmt.Sprintf("127.0.0.1:%d", w.sink.port))
	if err != nil {
		return err
	}
	return w.gen.connect(port)
}

func (w *wireRig) stopTarget() {
	if w.target != nil {
		w.target.stop()
		w.target = nil
	}
	// Drop anything still queued for the previous target's replies.
	for {
		if n, _ := w.sink.poll(w.rbuf); n == 0 {
			return
		}
	}
}

// stamp writes the next sequence number into a payload.
func (w *wireRig) stamp(p []byte) {
	w.seq++
	binary.BigEndian.PutUint64(p[wireSeqAt:], w.seq)
}

// received checks one sink datagram against what was sent: it must be, byte
// for byte, the socket payload of the pool frame it names — same VNI (the
// routes are local), untouched inner frame. (Which NC the gateway chose is not
// visible here: all NCs share the sink.) It returns the sequence number.
func (w *wireRig) received(b []byte) (seq uint64, ok bool) {
	if len(b) < wireSeqAt+12 {
		return 0, false
	}
	seq = binary.BigEndian.Uint64(b[wireSeqAt:])
	i := binary.BigEndian.Uint32(b[wireSeqAt+8:])
	if int(i) >= len(w.payloads) {
		return seq, false
	}
	p := w.payloads[i]
	return seq, len(b) == len(p) && bytes.Equal(b[:wireSeqAt], p[:wireSeqAt]) && bytes.Equal(b[wireSeqAt+8:], p[wireSeqAt+8:])
}

// closedSliceWindows is the length of one closed-trial slice: 2048 datagrams,
// some 13 ms. What one window costs depends on whether it caught the daemon
// awake; 64 windows average that out, where the fastest of shorter slices
// would be the luckiest streak (and moved half as much again from run to run).
const closedSliceWindows = 64

// wireTrial is what one closed or paced trial measured.
type wireTrial struct {
	sent, failed int
	// closed: wall nanoseconds of each slice, and the target's CPU time over
	// the trial's wall time.
	segNs    []float64
	cpuShare float64
	// closed: p50 is the send→receipt latency; paced: latency from the
	// instant each datagram was due. µs, over the whole trial.
	p50, p90, p99 float64
	lateP50       float64 // paced: generator lateness, µs
	lateP99       float64
	genCPUNs      float64
	target        procCPU // delta over the trial
}

// closedTrial sends windows of 32 and collects each window before the next,
// timing them in slices of closedSliceWindows windows. Every closed trial
// walks the payloads in pool order from the start.
func (w *wireRig) closedTrial(datagrams int) (wireTrial, error) {
	res := wireTrial{sent: datagrams}
	var sentAt [batchSize]int64
	var root, send, collect uint8
	if w.ring != nil {
		root, send, collect = w.ring.nameID("gw.window"), w.ring.nameID("loadgen.send"), w.ring.nameID("loadgen.collect")
	}
	w.lat = w.lat[:0]
	runtime.GC()
	pid := w.target.pid()
	before, err := readProcCPU(pid)
	if err != nil {
		return res, err
	}
	cpu0 := processCPU()
	epoch := time.Now()
	const slice = closedSliceWindows * batchSize
	for start := 0; start < datagrams; start += slice {
		end := min(start+slice, datagrams)
		s0 := int64(time.Since(epoch))
		for off := start; off+batchSize <= end; off += batchSize {
			base := w.seq
			t0 := int64(time.Since(epoch))
			for j := 0; j < batchSize; j++ {
				p := w.payloads[(off+j)%len(w.payloads)]
				w.stamp(p)
				sentAt[j] = int64(time.Since(epoch))
				if err := w.gen.send(p); err != nil {
					return res, fmt.Errorf("send: %w", err)
				}
			}
			t1 := int64(time.Since(epoch))
			got := 0
			for got < batchSize {
				n, err := w.sink.poll(w.rbuf)
				now := int64(time.Since(epoch))
				if err != nil {
					return res, fmt.Errorf("sink read: %w", err)
				}
				if n == 0 {
					if now-t1 > int64(wireGiveUp) {
						break
					}
					continue
				}
				seq, ok := w.received(w.rbuf[:n])
				if seq <= base || seq > base+batchSize {
					continue // a straggler from a window already written off
				}
				got++
				if !ok {
					res.failed++
					continue
				}
				w.lat = append(w.lat, float64(now-sentAt[seq-base-1]))
			}
			res.failed += batchSize - got
			if w.ring != nil {
				// Same clock as the ring's: both count from a time.Now reading.
				t2 := int64(time.Since(epoch))
				shift := int64(epoch.Sub(w.ring.epoch))
				id := w.ring.add(root, -1, int32(off/batchSize), t0+shift, t2+shift)
				w.ring.add(send, id, int32(off/batchSize), t0+shift, t1+shift)
				w.ring.add(collect, id, int32(off/batchSize), t1+shift, t2+shift)
			}
		}
		res.segNs = append(res.segNs, float64(int64(time.Since(epoch))-s0))
	}
	elapsed := float64(time.Since(epoch))
	res.genCPUNs = processCPU() - cpu0
	after, err := readProcCPU(pid)
	if err != nil {
		return res, err
	}
	res.target = procCPU{after.runNs - before.runNs, after.userNs - before.userNs, after.sysNs - before.sysNs, after.volCtx - before.volCtx}
	res.cpuShare = res.target.runNs / elapsed
	if len(w.lat) > 0 {
		res.p50, res.p90, res.p99 = trialPercentiles(w.lat)
	}
	return res, nil
}

// pacedTrial offers datagrams on a fixed schedule, whatever the daemon does,
// and times each from the instant it was due.
func (w *wireRig) pacedTrial(datagrams int) (wireTrial, error) {
	w.late = w.late[:0]
	res := wireTrial{sent: datagrams}
	const interval = int64(time.Second) / wirePacedRate
	due := make([]int64, datagrams)
	lat := make([]float64, datagrams) // 0: not received; -1: wrong
	runtime.GC()
	base := w.seq
	epoch := time.Now()
	next, got := 0, 0
	origin := int64(0) // schedule origin; moves only when the generator itself stalls
	for got < datagrams {
		now := int64(time.Since(epoch))
		if next < datagrams {
			if d := origin + int64(next)*interval; now >= d {
				w.late = append(w.late, float64(now-d))
				if now-d > pacedMaxCatchUp*interval {
					// The generator was off the CPU. Sending everything it
					// missed back to back would be a burst no schedule asked
					// for; the schedule slips instead, and the stall stays on
					// record as lateness.
					origin += now - d
					d = now
				}
				due[next] = d
				p := w.payloads[next%len(w.payloads)]
				w.stamp(p)
				if err := w.gen.send(p); err != nil {
					return res, fmt.Errorf("send: %w", err)
				}
				next++
				continue
			}
		} else if now > due[datagrams-1]+int64(wireGiveUp) {
			break
		}
		n, err := w.sink.poll(w.rbuf)
		if err != nil {
			return res, fmt.Errorf("sink read: %w", err)
		}
		if n == 0 {
			continue
		}
		now = int64(time.Since(epoch))
		seq, ok := w.received(w.rbuf[:n])
		if seq <= base || seq > base+uint64(next) || lat[seq-base-1] != 0 {
			continue
		}
		got++
		d := now - due[seq-base-1]
		if !ok {
			lat[seq-base-1] = -1
			continue
		}
		lat[seq-base-1] = float64(d)
	}
	w.lat = w.lat[:0]
	for _, d := range lat {
		if d > 0 {
			w.lat = append(w.lat, d)
		} else {
			res.failed++
		}
	}
	if len(w.lat) > 0 {
		res.p50, res.p90, res.p99 = trialPercentiles(w.lat)
	}
	res.lateP50, _, res.lateP99 = trialPercentiles(w.late)
	return res, nil
}

// setUpWire is one complete wire set-up: daemon start to ready, then the
// fixed-count closed-loop warm-up. It returns the seconds each stage took:
// the start, then every slice of the warm-up (see setUpRegion).
func (w *wireRig) setUpWire() ([]float64, error) {
	t0 := time.Now()
	if err := w.startDaemon(); err != nil {
		return nil, err
	}
	stages := []float64{time.Since(t0).Seconds()}
	res, err := w.closedTrial(wireWarmDatagrams)
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d datagrams lost or wrong; daemon says: %s", res.failed, res.sent, w.target.logs.String())
	}
	for _, ns := range res.segNs {
		stages = append(stages, ns/1e9)
	}
	return stages, nil
}

// echoCheck measures the generator against the null reflector: the ceiling
// the generator itself puts on a closed trial, by the same estimator as the
// rate against the daemon it is compared with.
func (w *wireRig) echoCheck(trials int) (pktPerS, busyShare float64, err error) {
	w.stopTarget()
	if err := w.startEcho(); err != nil {
		return 0, 0, err
	}
	defer w.stopTarget()
	if _, err := w.closedTrial(wireClosedDatagrams); err != nil { // warm the reflector
		return 0, 0, err
	}
	var ns [][]float64
	var busy []float64
	for t := 0; t < trials; t++ {
		res, err := w.closedTrial(wireClosedDatagrams)
		if err != nil {
			return 0, 0, err
		}
		if res.failed > 0 {
			return 0, 0, fmt.Errorf("reflector: %d of %d datagrams lost or wrong", res.failed, res.sent)
		}
		ns = append(ns, res.segNs)
		busy = append(busy, res.genCPUNs/total(res.segNs))
	}
	return 1e9 * wireClosedDatagrams / p10Trial(ns, nil), median(busy), nil
}

// wireRun holds the per-trial results of a wire section.
type wireRun struct {
	closed, paced []wireTrial
	offered       int
	failed        int
}

func (r *wireRun) add(t wireTrial, paced bool) {
	if paced {
		r.paced = append(r.paced, t)
	} else {
		r.closed = append(r.closed, t)
	}
	r.offered += t.sent
	r.failed += t.failed
}

// each collects one value from every trial.
func each[T any](ts []wireTrial, f func(*wireTrial) T) []T {
	out := make([]T, len(ts))
	for i := range ts {
		out[i] = f(&ts[i])
	}
	return out
}

func trialNs(t *wireTrial) []float64     { return t.segNs }
func trialCPUShare(t *wireTrial) float64 { return t.cpuShare }

// lateTrials counts paced trials whose median generator lateness exceeded
// wireLateLimitUs: in those the generator, not the daemon, set the latency.
func (r *wireRun) lateTrials() int {
	n := 0
	for _, t := range r.paced {
		if t.lateP50 > wireLateLimitUs {
			n++
		}
	}
	return n
}

// runWire is the untraced wire-64b run.
func runWire(o options) (outcome, error) {
	w, err := newWireRig(o, o.seed)
	if err != nil {
		return outcome{}, err
	}
	defer w.close()
	e := endToEnd{trialPackets: wireClosedDatagrams}
	for r := 0; r < setupRepeats; r++ {
		w.stopTarget()
		stages, err := w.setUpWire()
		if err != nil {
			return outcome{}, err
		}
		e.setups = append(e.setups, stages)
	}
	var run wireRun
	pairs := o.trialCount(wirePairsPerMinute)
	for t := 0; t < pairs; t++ {
		c, err := w.closedTrial(wireClosedDatagrams)
		if err != nil {
			return outcome{}, err
		}
		run.add(c, false)
		p, err := w.pacedTrial(wirePacedDatagrams)
		if err != nil {
			return outcome{}, err
		}
		run.add(p, true)
	}
	if e.memMiB, err = peakRSSMiB(w.target.pid()); err != nil {
		return outcome{}, err
	}
	daemonLog := w.target.logs.String()
	echoRate, _, err := w.echoCheck(echoTrials)
	if err != nil {
		return outcome{}, err
	}
	e.ns, e.cpuShare = each(run.closed, trialNs), each(run.closed, trialCPUShare)
	e.p50 = each(run.paced, func(t *wireTrial) float64 { return t.p50 })
	e.p90 = each(run.paced, func(t *wireTrial) float64 { return t.p90 })
	e.offered, e.failed = run.offered, run.failed
	m := e.metrics()
	// The number must measure the daemon, not the generator.
	if rate := m["pkt_per_s"].Value; echoRate < 1.2*rate {
		return outcome{}, fmt.Errorf("generator is the ceiling: %.0f pkt/s against the null reflector, %.0f against the daemon (need 1.2×)", echoRate, rate)
	}
	if late := run.lateTrials(); 2*late > len(run.paced) {
		return outcome{}, fmt.Errorf("generator ran late: median lateness above %d µs in %d of %d paced trials",
			wireLateLimitUs, late, len(run.paced))
	}
	rep := report{Correct: m["ok_permille"].Value >= 999, Attempted: e.offered, Failed: e.failed, Metrics: m}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "bench: daemon log tail: %s\n", daemonLog)
	}
	return outcome{rep, pairs, e.segments()}, nil
}

// echoTrials is how many closed trials the reflector check times: enough for
// their p10 to stand on an undisturbed one, at a seventh of a second each.
const echoTrials = 12

// wireProbeResult is what the traced runs take from a short wire section.
type wireProbeResult struct {
	untracedNs, tracedNs float64 // closed trials, ns per datagram
	trialSpread          float64
	pacedP50, pacedP90   float64
	pacedP99             float64
	offered, failed      int
}

// wireProbes runs a short wire section against the daemon and the reflector
// and books the gw.* and loadgen.* layer metrics. It needs the in-process
// probes' numbers already in out for gw.socket_self_ns.
func wireProbes(o options, out map[string]metric, ring *spanRing) (wireProbeResult, error) {
	var res wireProbeResult
	w, err := newWireRig(o, o.seed)
	if err != nil {
		return res, err
	}
	defer w.close()
	if _, err := w.setUpWire(); err != nil {
		return res, err
	}
	const closedTrials, pacedTrials = 4, 3
	var run, traced wireRun
	for t := 0; t < closedTrials; t++ {
		c, err := w.closedTrial(wireClosedDatagrams)
		if err != nil {
			return res, err
		}
		run.add(c, false)
		if t < pacedTrials {
			p, err := w.pacedTrial(wirePacedDatagrams)
			if err != nil {
				return res, err
			}
			run.add(p, true)
		}
	}
	w.ring = ring
	for t := 0; t < closedTrials; t++ {
		c, err := w.closedTrial(wireClosedDatagrams) // the same windows again, now with spans
		if err != nil {
			return res, err
		}
		traced.add(c, false)
	}
	w.ring = nil
	echoRate, busy, err := w.echoCheck(echoTrials)
	if err != nil {
		return res, err
	}
	var sum procCPU
	sent := 0
	for _, t := range append(run.closed, traced.closed...) {
		sum.userNs, sum.sysNs, sum.volCtx = sum.userNs+t.target.userNs, sum.sysNs+t.target.sysNs, sum.volCtx+t.target.volCtx
		sent += t.sent
	}
	quiet := p10Trial(each(run.closed, trialNs), nil)
	res.untracedNs, res.tracedNs = quiet/wireClosedDatagrams, p10Trial(each(traced.closed, trialNs), nil)/wireClosedDatagrams
	res.trialSpread = median(each(run.closed, func(t *wireTrial) float64 { return total(t.segNs) })) / quiet
	res.pacedP50 = p10Fastest(each(run.paced, func(t *wireTrial) float64 { return t.p50 }))
	res.pacedP90 = p10Fastest(each(run.paced, func(t *wireTrial) float64 { return t.p90 }))
	res.pacedP99 = p10Fastest(each(run.paced, func(t *wireTrial) float64 { return t.p99 }))
	res.offered, res.failed = run.offered+traced.offered, run.failed+traced.failed

	cpu := res.untracedNs * median(each(run.closed, trialCPUShare))
	out["gw.sys_share"] = metric{sum.sysNs / (sum.userNs + sum.sysNs), "share"}
	out["gw.ctxsw_per_kpkt"] = metric{1000 * sum.volCtx / float64(sent), "count"}
	out["gw.closed_lat_p50_us"] = metric{p10Fastest(each(run.closed, func(t *wireTrial) float64 { return t.p50 })), "us"}
	inProcess := out["xgwh.process_ns"].Value + out["netpkt.serialize_ns"].Value + out["netpkt.parse_front_ns"].Value +
		out["heavyhitter.observe_ns"].Value + out["slo.book_ns"].Value + out["trace.record_ns"].Value/64
	out["gw.socket_self_ns"] = metric{cpu - inProcess, "ns"}
	out["loadgen.echo_pkt_per_s"] = metric{echoRate, "pkt/s"}
	out["loadgen.busy_share"] = metric{busy, "share"}
	out["loadgen.late_p99_us"] = metric{median(each(run.paced, func(t *wireTrial) float64 { return t.lateP99 })), "us"}
	return res, nil
}

// runWireTraced is the traced wire-64b run: the in-process layers come from a
// one-node region holding the daemon's tenants, the bench.* metrics from the
// wire itself.
func runWireTraced(o options) (outcome, error) {
	return runRegionTraced(regionSpec{name: "wire-64b", gen: genWire, trialPackets: 4 * poolFrames, warmTrials: 1}, o)
}
