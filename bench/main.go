// Command bench is the repository's benchmark: one invocation sets one
// workload up, measures it, checks every output against the generator's own
// tenant map, and prints every metric by name and unit. See README.md.
//
//	bench --workload region-hit-64b --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics from an untraced
// section of fixed-work trials; with --trace 1 it reports the per-layer
// metrics from a traced section that replays the same inputs through each
// layer's public functions. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a run hands back to main.
type outcome struct {
	report
	trials   int
	segments map[string][][]float64 // untraced runs: per series, what each slice of each trial measured
}

// document is the full run output written with --out: the result plus what
// the run was and where it ran.
type document struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       int         `json:"trace"`
	Environment environment `json:"environment"`
	Trials      int         `json:"trials"`
	// Segments keeps every measurement the estimates were made from, per series
	// ("ns", "control_ns", "setup_s"), per trial (or set-up), per slice (or
	// stage); "cpu_share" and "lat_us" hold one value per trial: the CPU share,
	// and the p50 and p90 latency, one row each.
	Segments map[string][][]float64 `json:"segments,omitempty"`
	report
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string // JSONL span dump
	out      string // full run document
	gw, echo string // daemon and reflector binaries (wire-64b and the gw.* probes)
	workDir  string // where the daemon's config is written
}

// setupRepeats is how many times a run sets the system up. Every repeat does
// the same deterministic work from scratch, stage by stage, so setup_s is
// quietSum over the repeats' stages.
const setupRepeats = 3

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "region-hit-64b | region-lpm-churn | region-ladder-zipf | wire-64b")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed section on the reference box: fixes the number of trials")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, write the spans to this file as JSONL")
	flag.StringVar(&o.out, "out", "", "also write the full run document (environment, seed, metrics) to this file")
	flag.StringVar(&o.gw, "gw", "", "path of the sailfish-gw binary")
	flag.StringVar(&o.echo, "echo", "", "path of the null reflector binary (bench/cmd/echo)")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/run", "scratch directory for the daemon config")
	flag.Parse()

	env := readEnvironment()
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s kernel=%s link=%s\n",
		o.workload, o.seed, o.seconds, o.trace, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Kernel, env.Link)

	res, err := run(o)
	rep := res.report
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if o.out != "" {
		doc := document{o.workload, o.seed, o.seconds, o.trace, env, res.trials, res.segments, rep}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", o.out, err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(o options) (outcome, error) {
	if o.workload == "wire-64b" {
		if o.trace == 1 {
			return runWireTraced(o)
		}
		return runWire(o)
	}
	for _, spec := range regionSpecs {
		if spec.name == o.workload {
			if o.trace == 1 {
				return runRegionTraced(spec, o)
			}
			return runRegion(spec, o)
		}
	}
	return outcome{}, fmt.Errorf("unknown workload %q", o.workload)
}

// trialCount is how many trials the timed section has. A run does fixed work:
// perMinute is frozen per workload so that --seconds of trials take about
// that long on the reference box, and a slower box takes longer instead of
// measuring less — which also leaves stateful layers (SNAT sessions, the
// ladder's rank rotation) in the same state at the end of every run.
func (o options) trialCount(perMinute int) int { return max(2, o.seconds*perMinute/60) }

// endToEnd turns what the trials measured into the five end-to-end metrics.
// Every trial counts as its quietTrial value, the run as its p10 trial.
type endToEnd struct {
	setups          [][]float64 // per repeat, per stage: seconds
	ns, ctl         [][]float64 // per trial, per slice: wall nanoseconds of forwarding and of control
	cpuShare        []float64   // per trial: CPU time over wall time
	p50, p90        []float64   // per trial: latency percentiles, µs (reported ungated, by the traced run)
	trialPackets    int
	offered, failed int
	memMiB          float64
}

func (e endToEnd) segments() map[string][][]float64 {
	return map[string][][]float64{"setup_s": e.setups, "ns": e.ns, "control_ns": e.ctl, "cpu_share": {e.cpuShare}, "lat_us": {e.p50, e.p90}}
}

// p10Trial is the run's time for one trial's work: each trial's slices and
// control total through quietTrial, then the 10th percentile over the trials.
func p10Trial(slices, ctl [][]float64) float64 {
	per := make([]float64, len(slices))
	for t := range slices {
		control := 0.0
		if ctl != nil {
			control = total(ctl[t])
		}
		per[t] = quietTrial(slices[t], control)
	}
	return p10Fastest(per)
}

// CPU per packet is the undisturbed time per packet times the CPUs the work
// keeps busy, the typical trial's: a neighbour's burst stretches CPU time and
// wall time alike and leaves their ratio alone.
func (e endToEnd) metrics() map[string]metric {
	okPermille := 1000 * float64(e.offered-e.failed) / float64(e.offered)
	nsPerPkt := p10Trial(e.ns, e.ctl) / float64(e.trialPackets)
	return map[string]metric{
		"setup_s":        {quietSum(e.setups), "s"},
		"pkt_per_s":      {1e9 / nsPerPkt, "pkt/s"},
		"cpu_ns_per_pkt": {nsPerPkt * median(e.cpuShare), "ns"},
		"ok_permille":    {okPermille, "permille"},
		"mem_mb":         {e.memMiB, "MiB"},
	}
}

// residentMiB is this process's resident set (VmRSS) after a collection, with
// freed memory returned to the system: what the built, warm tables hold, not
// what building them happened to leave uncollected.
func residentMiB() (float64, error) {
	debug.FreeOSMemory()
	kb, err := procStatus(os.Getpid(), "VmRSS")
	return kb / 1024, err
}

// runRegion is the untraced run of an in-process workload.
func runRegion(spec regionSpec, o options) (outcome, error) {
	in := spec.gen(o.seed)
	e := endToEnd{trialPackets: spec.trialPackets}
	var s *regionSUT
	for r := 0; r < setupRepeats; r++ {
		s = nil
		debug.FreeOSMemory() // the previous repeat's deployment must not count towards this one's heap
		var stages []float64
		var err error
		if s, stages, err = setUpRegion(spec, in, workloadObservers(spec.name)); err != nil {
			return outcome{}, err
		}
		e.setups = append(e.setups, stages)
	}
	trials := o.trialCount(spec.trialsPerMinute)
	for t := 0; t < trials; t++ {
		res, err := s.runTrial(spec.warmTrials+t, spec.trialPackets)
		if err != nil {
			return outcome{}, err
		}
		e.ns, e.ctl, e.cpuShare = append(e.ns, res.fwdNs), append(e.ctl, res.ctlNs), append(e.cpuShare, res.cpuShare)
		e.p50, e.p90 = append(e.p50, res.p50), append(e.p90, res.p90)
		e.offered += res.packets
		e.failed += res.failed
	}
	var err error
	if e.memMiB, err = residentMiB(); err != nil {
		return outcome{}, err
	}
	poolFailed := s.verifyPool()
	return outcome{report{
		Correct:   e.failed == 0 && poolFailed == 0,
		Attempted: e.offered + len(in.frames),
		Failed:    e.failed + poolFailed,
		Metrics:   e.metrics(),
	}, trials, e.segments()}, nil
}
