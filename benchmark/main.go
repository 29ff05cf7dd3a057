// Command benchmark is the repository's performance benchmark: six
// workloads driven through the public functions of the product packages,
// end-to-end metrics measured with tracing off, per-layer metrics from a
// separate traced pass, every output verified.  See README.md.
//
// The driver's form runs one workload for one pass and ends with one JSON
// line:
//
//	bash benchmark/run.sh --workload stream_small --seed 1 --seconds 16 --trace 0
//
// Without --workload the whole suite runs, both passes per workload, and
// -aa runs the untraced suite twice and checks the two against the bounds
// in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

const defaultSeconds = 16

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run (default: all six)")
	seed := flag.Int64("seed", DevSeed, "seed for payload contents, field names and catalogue")
	seconds := flag.Int("seconds", 0, "seconds measured per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	aa := flag.Bool("aa", false, "run the untraced suite twice and compare the runs against the bounds")
	specPath := flag.String("spec", "BENCHMARK.json", "path to BENCHMARK.json")
	outDir := flag.String("out", "benchmark/out", "directory for trace-<workload>.jsonl")
	flag.Parse()

	if err := configureProcs(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: refusing to run:", err)
		return 2
	}
	spec, specErr := loadSpec(*specPath)
	if *seconds == 0 {
		*seconds = defaultSeconds
		if specErr == nil && spec.RunSeconds > 0 {
			*seconds = spec.RunSeconds
		}
	}
	env, _ := json.Marshal(stampEnv(*seed))
	fmt.Printf("env %s\n", env)

	switch {
	case *aa:
		if specErr != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -aa needs the bounds:", specErr)
			return 2
		}
		return runAA(spec, *seed, *seconds)
	case *name == "":
		return runSuite(*seed, *seconds, *outDir)
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	res, err := wl.run(*seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	report(res, *outDir)
	return finish(res)
}

// report prints a run's notes, metrics and — for a traced pass — the
// stacked table, and writes the spans out.
func report(res *result, outDir string) {
	for _, n := range res.Notes {
		fmt.Printf("%s: %s\n", res.Workload, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%s %-34s %16.4f %s\n", res.Workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%s attempted=%d failed=%d (%s)\n", res.Workload, res.Attempted, res.Failed, res.Fails)
	if len(res.Spans) > 0 {
		printShares(os.Stdout, res.Workload, res.Spans)
		if path, err := writeTrace(outDir, res.Workload, res.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
		} else {
			fmt.Printf("%s: %d spans written to %s\n", res.Workload, len(res.Spans), path)
		}
	}
}

// finish prints the driver's result line and returns the exit code: any
// verification failure is a non-zero exit.
func finish(res *result) int {
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, max(res.Attempted, 1), res.Failed, res.Metrics})
	fmt.Printf("%s\n", line)
	if res.Failed != 0 {
		return 1
	}
	return 0
}

// runSuite runs every workload, untraced then traced.
func runSuite(seed int64, seconds int, outDir string) int {
	code := 0
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := wl.run(seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
				continue
			}
			report(res, outDir)
			if res.Failed != 0 {
				code = 1
			}
		}
	}
	return code
}

// runAA runs the untraced suite twice on this binary and holds the pair to
// the benchmark's own bounds.
func runAA(spec *benchSpec, seed int64, seconds int) int {
	var sets [2][]*result
	for i := range sets {
		for _, wl := range workloads {
			res, err := wl.run(seed, seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Printf("aa run %d: %s done, failed=%d\n", i+1, wl.name, res.Failed)
			sets[i] = append(sets[i], res)
		}
	}
	if !compareRuns(os.Stdout, spec, sets[0], sets[1]) {
		fmt.Println("A/A: MISS — two runs of the same binary disagree by more than a bound")
		return 1
	}
	fmt.Println("A/A: every end-to-end metric x workload within its bound")
	return 0
}
