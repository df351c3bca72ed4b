// Command indiss-bench is the repository's benchmark: it deploys INDISS
// on the in-process simulated fabric, drives each workload with an open
// loop of Poisson arrivals and then a closed loop, checks every answer,
// and prints every metric as "workload metric value unit", followed by
// one JSON result line. README.md describes the workloads and metrics.
//
//	indiss-bench [-workload all] [-seed 1] [-seconds 20] [-trace 0|1]
//	             [-json ledger.json] [-spans spans.json]
//
// A run that failed lookups or churn beyond 1%, or whose load generator
// ran more than 500µs late at p90, exits non-zero without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	only := flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the arrivals, the lookup mix and the churn")
	seconds := flag.Int("seconds", 20, "measured seconds per run, spread over its rounds: two thirds open loop, one third closed loop")
	traced := flag.Int("trace", 0, "1 runs the traced variant, reporting the per-layer metrics")
	ledger := flag.String("json", "", "also write every metric of the run to this file")
	spansOut := flag.String("spans", "", "write a traced run's spans to this file")
	flag.Parse()

	var selected []workload
	for _, w := range workloads {
		if *only == "all" || *only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The gateways' view stores live in the git-ignored directory run.sh
	// builds into, and go away with their deployment.
	const dataRoot = ".bench_build"
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		fail(err)
	}
	e := &env{seed: *seed, traced: *traced == 1, dataRoot: dataRoot}
	var entries []ledgerEntry
	var spans []span
	for _, w := range selected {
		r, s, err := runWorkload(w, e, runTiming(*seconds))
		if err != nil {
			fail(err)
		}
		for _, m := range r.metrics {
			fmt.Printf("%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		}
		for _, err := range r.errs {
			fmt.Fprintf(os.Stderr, "indiss-bench: %s: %v\n", r.workload, err)
		}
		if err := validate(r); err != nil {
			fail(err)
		}
		list := endToEnd
		if e.traced {
			list = perLayer
		}
		res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: pick(r, list)}
		if len(res.Metrics) != len(list) {
			fail(fmt.Errorf("%s: run emitted %d of the %d listed metrics", r.workload, len(res.Metrics), len(list)))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
		entries = append(entries, ledgerEntry{
			Workload: r.workload, Seed: *seed, Seconds: *seconds, Trace: *traced,
			Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, CPUs: runtime.NumCPU(),
			result: res, All: pick(r, nil),
		})
		spans = mergeSpans(spans, s)
	}
	if *ledger != "" {
		if err := writeJSON(*ledger, entries); err != nil {
			fail(err)
		}
	}
	if *spansOut != "" {
		if err := writeJSON(*spansOut, spans); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "indiss-bench:", err)
	os.Exit(1)
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the command's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// ledgerEntry is one run in the -json ledger: the result line plus every
// metric measured and what it was measured with.
type ledgerEntry struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Go       string `json:"go"`
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	CPUs     int    `json:"cpus"`
	result
	All map[string]jsonMetric `json:"all"`
}

// pick selects the listed metrics of r, or all of them for a nil list.
func pick(r *report, list []metricDef) map[string]jsonMetric {
	out := make(map[string]jsonMetric)
	for _, m := range r.metrics {
		out[m.name] = jsonMetric{m.value, m.unit}
	}
	if list == nil {
		return out
	}
	sel := make(map[string]jsonMetric, len(list))
	for _, def := range list {
		if m, ok := out[def.name]; ok {
			sel[def.name] = m
		}
	}
	return sel
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
