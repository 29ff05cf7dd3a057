// Command xmitbench regenerates the paper's evaluation figures
// (Section 4) on the local machine and prints each as a table.
//
// Usage:
//
//	xmitbench                      # all figures
//	xmitbench -fig 8               # one figure (1, 3, 6, 7, 8, or "expansion")
//	xmitbench -fig 8,fanout,mesh   # several figures
//	xmitbench -quick               # fast, low-precision pass
//	xmitbench -json out.json       # also write machine-readable records
//	xmitbench -baseline BENCH.json # fail on >tolerance throughput regression
//	xmitbench -history DIR         # widen the baseline with prior runs' records
//	xmitbench -require-figs        # fail if a requested figure yields no records
//	xmitbench -count 5             # repeat each figure; records carry mean and min/max
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"github.com/open-metadata/xmit/internal/bench"
	"github.com/open-metadata/xmit/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", `comma-separated figures to regenerate: 1, 3, 6, 7, 8, "expansion", "amortization", "ablations", "allocs", "fanout", "mesh", "writev", "evolve", "evolve-mesh", "coldstart", or "all"`)
	quick := flag.Bool("quick", false, "use fast, low-precision measurement settings")
	count := flag.Int("count", 1, "repetitions per figure; JSON records carry the mean plus min/max spread")
	metricsAddr := flag.String("metrics", "", "serve the process obs registry at /metrics on this HTTP address while running (empty: disabled)")
	stats := flag.Bool("stats", false, "dump the process obs registry as JSON to stderr after the run")
	jsonOut := flag.String("json", "", "write machine-readable benchmark records to this file (figures 8, fanout, mesh, writev, evolve, evolve-mesh, and coldstart)")
	baseline := flag.String("baseline", "", "compare this run's throughput records against a baseline JSON file; exit nonzero on regression")
	history := flag.String("history", "", "directory of prior runs' record files (*.json); the gate compares against the best of baseline and history per metric (trend-aware)")
	tolerance := flag.Float64("tolerance", 0.35, "allowed fractional throughput drop vs the baseline before failing")
	requireFigs := flag.Bool("require-figs", false, "fail if a requested record-producing figure contributed no records (guards the gate against vacuous passes)")
	flag.Parse()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Default().Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "xmitbench: metrics:", err)
			}
		}()
	}

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	if *count < 1 {
		*count = 1
	}
	var runs [][]bench.JSONRecord
	var err error
	for rep := 0; rep < *count; rep++ {
		out := io.Writer(os.Stdout)
		if rep > 0 {
			out = io.Discard // tables print once; later reps only feed the records
		}
		var recs []bench.JSONRecord
		recs, err = run(*fig, opts, out)
		if err != nil {
			break
		}
		runs = append(runs, recs)
	}
	var records []bench.JSONRecord
	if len(runs) > 0 {
		records = bench.MergeRecords(runs)
	}
	if *stats {
		obs.Default().WriteJSON(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmitbench:", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := bench.WriteJSONFile(*jsonOut, records); err != nil {
			fmt.Fprintln(os.Stderr, "xmitbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "xmitbench: wrote %d records to %s\n", len(records), *jsonOut)
	}
	if *requireFigs {
		missing := bench.RequireFigures(strings.Split(*fig, ","), records)
		if len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "xmitbench: %d requested figure(s) yielded no records:\n", len(missing))
			for _, m := range missing {
				fmt.Fprintln(os.Stderr, "  "+m)
			}
			os.Exit(3)
		}
	}
	if *baseline != "" {
		base, err := bench.ReadJSONFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmitbench:", err)
			os.Exit(1)
		}
		if *history != "" {
			// Trend-aware gating: fold prior runs into the baseline so a
			// committed baseline recorded on a slow day cannot hide a real
			// regression.  Unreadable history files are skipped — history is
			// an opportunistic tightening, never a reason to fail the gate.
			paths, _ := filepath.Glob(filepath.Join(*history, "*.json"))
			var prior [][]bench.JSONRecord
			for _, p := range paths {
				if recs, err := bench.ReadJSONFile(p); err == nil {
					prior = append(prior, recs)
				} else {
					fmt.Fprintf(os.Stderr, "xmitbench: skipping history file %s: %v\n", p, err)
				}
			}
			if len(prior) > 0 {
				base = bench.BestBaseline(base, prior...)
				fmt.Fprintf(os.Stderr, "xmitbench: baseline widened with %d prior run(s) from %s\n", len(prior), *history)
			}
		}
		regs := bench.CompareJSON(base, records, *tolerance)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "xmitbench: %d throughput regression(s) vs %s (tolerance %.0f%%):\n",
				len(regs), *baseline, *tolerance*100)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "xmitbench: no throughput regressions vs %s (tolerance %.0f%%)\n",
			*baseline, *tolerance*100)
	}
}

func run(figs string, opts bench.Options, out io.Writer) ([]bench.JSONRecord, error) {
	wanted := make(map[string]bool)
	for _, f := range strings.Split(figs, ",") {
		if f = strings.TrimSpace(f); f != "" {
			wanted[f] = true
		}
	}
	want := func(name string) bool { return wanted["all"] || wanted[name] }
	var records []bench.JSONRecord
	ran := false

	if want("1") {
		ran = true
		res, err := bench.Fig1(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintFig1(out, res)
		fmt.Fprintln(out)
	}
	if want("3") {
		ran = true
		rows, err := bench.Fig3(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintFig3(out, rows)
		fmt.Fprintln(out)
	}
	if want("6") {
		ran = true
		rows, err := bench.Fig6(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintFig6(out, rows)
		fmt.Fprintln(out)
	}
	if want("7") {
		ran = true
		rows, err := bench.Fig7(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintFig7(out, rows)
		fmt.Fprintln(out)
	}
	if want("8") {
		ran = true
		rows, err := bench.Fig8(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintFig8(out, rows)
		fmt.Fprintln(out)
		records = append(records, bench.Fig8Records(rows)...)
	}
	if want("expansion") {
		ran = true
		rows, err := bench.Expansion()
		if err != nil {
			return nil, err
		}
		bench.PrintExpansion(out, rows)
		fmt.Fprintln(out)
	}
	if want("amortization") {
		ran = true
		rows, err := bench.Amortization(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintAmortization(out, rows)
		fmt.Fprintln(out)
	}
	if want("ablations") {
		ran = true
		stages, err := bench.AblationRegistrationStages(opts)
		if err != nil {
			return nil, err
		}
		conv, err := bench.AblationConversion(opts)
		if err != nil {
			return nil, err
		}
		fast, err := bench.AblationFastPaths(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintAblations(out, stages, conv, fast)
		fmt.Fprintln(out)
	}
	if want("allocs") {
		ran = true
		rows, err := bench.Allocs(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintAllocs(out, rows)
		fmt.Fprintln(out)
	}
	if want("fanout") {
		ran = true
		rows, err := bench.Fanout(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintFanout(out, rows)
		fmt.Fprintln(out)
		records = append(records, bench.FanoutRecords(rows)...)
	}
	if want("mesh") {
		ran = true
		rows, err := bench.Mesh(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintMesh(out, rows)
		fmt.Fprintln(out)
		records = append(records, bench.MeshRecords(rows)...)
	}
	if want("writev") {
		ran = true
		rows, err := bench.Writev(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintWritev(out, rows)
		fmt.Fprintln(out)
		records = append(records, bench.WritevRecords(rows)...)
	}
	if want("evolve") {
		ran = true
		rows, err := bench.Evolve(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintEvolve(out, rows)
		fmt.Fprintln(out)
		records = append(records, bench.EvolveRecords(rows)...)
	}
	if want("evolve-mesh") {
		ran = true
		rows, err := bench.EvolveMesh(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintEvolveMesh(out, rows)
		fmt.Fprintln(out)
		records = append(records, bench.EvolveMeshRecords(rows)...)
	}
	if want("coldstart") {
		ran = true
		rows, err := bench.Coldstart(opts)
		if err != nil {
			return nil, err
		}
		bench.PrintColdstart(out, rows)
		fmt.Fprintln(out)
		records = append(records, bench.ColdstartRecords(rows)...)
	}
	if !ran {
		return nil, fmt.Errorf("unknown figure %q", figs)
	}
	return records, nil
}
