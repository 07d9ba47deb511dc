// Command benchcmp compares two sets of benchmark runs. Each set is a
// directory of run documents (bench --out); for every pairing of workload and
// end-to-end metric it prints each side's median and quartiles, the relative
// gap between the medians, the bound BENCHMARK.json fixes, and the pair wins
// (runs are paired in file-name order). It exits non-zero when a gap exceeds
// half the metric's bound — for two sets of the same commit, the benchmark
// disagreeing with itself.
//
//	benchcmp [-spec BENCHMARK.json] <dir A> <dir B>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type document struct {
	Workload string `json:"workload"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// load returns workload → metric → values, in file-name order.
func load(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make(map[string]map[string][]float64)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[d.Workload] == nil {
			out[d.Workload] = make(map[string][]float64)
		}
		for name, m := range d.Metrics {
			out[d.Workload][name] = append(out[d.Workload][name], m.Value)
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile with the
// method of Python's statistics.quantiles(v, n=4): exclusive, positions
// (n+1)·k/4 on the sorted sample.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(len(s)+1) * float64(k) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition, for directions and bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-spec BENCHMARK.json] <dir A> <dir B>")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", *specPath, err)
		os.Exit(2)
	}
	a, err := load(flag.Arg(0))
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = load(flag.Arg(1)); err == nil {
			os.Exit(compare(sp, a, b))
		}
	}
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}

func compare(sp spec, a, b map[string]map[string][]float64) int {
	fmt.Println("| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | gap B vs A | bound | wins A/B/tie | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	status := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("| %s | %s | %s | %d runs | %d runs | | %g | | missing |\n", w.Name, m.Name, m.Unit, len(va), len(vb), m.Bound)
				status = 1
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			gap := (bm - am) / am
			winsA, winsB, ties := 0, 0, 0
			for i := 0; i < len(va) && i < len(vb); i++ {
				switch better := (m.Better == "higher") == (va[i] > vb[i]); {
				case va[i] == vb[i]:
					ties++
				case better:
					winsA++
				default:
					winsB++
				}
			}
			verdict := "ok"
			if math.Abs(gap) > m.Bound/2 {
				verdict = "GAP > bound/2"
				status = 1
			}
			fmt.Printf("| %s | %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.2f %% | %g | %d/%d/%d | %s |\n",
				w.Name, m.Name, m.Unit, am, a1, a3, bm, b1, b3, 100*gap, m.Bound, winsA, winsB, ties, verdict)
		}
	}
	return status
}
