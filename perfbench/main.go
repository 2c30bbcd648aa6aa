// Command perfbench is the end-to-end wire benchmark of the PPerfGrid
// stack. It stands up a real core.StartSite over real minidb stores,
// drives it through the public client API over loopback, checks every
// answer, and prints one JSON result line. See README.md for the
// workloads, the metrics and the traced run.
//
//	perfbench --workload hot-getpr --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the store and the traffic")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for disk stores and trace files")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if o.seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1, got %d", o.seconds))
	}
	w, ok := workloads[o.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fail(err)
	}
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o, w)
	} else {
		res, err = runPlain(o, w)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printEnv writes the environment record on its own stdout line, ahead of
// the result line.
func printEnv(e map[string]any) {
	b, err := json.Marshal(e)
	if err != nil {
		fail(err)
	}
	fmt.Println("env " + string(b))
}

// report prints a human-readable table of metrics to stderr.
func report(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "== %s\n", title)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
