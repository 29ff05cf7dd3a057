// Command xmitbench regenerates the paper's evaluation figures
// (Section 4) on the local machine and prints each as a table.
//
// Usage:
//
//	xmitbench                   # all figures
//	xmitbench -fig 8            # one figure (see -h for the names)
//	xmitbench -fig 1,expansion  # several figures
//	xmitbench -quick            # fast, low-precision pass
//
// The system around the paper's mechanism — broker fan-out, the mesh,
// pinned views, restarts — is measured by the repository's benchmark
// (benchmark/, workloads and bounds in BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"

	"github.com/open-metadata/xmit/internal/bench"
	"github.com/open-metadata/xmit/internal/obs"
)

// figure is one table xmitbench can regenerate.
type figure struct {
	name string
	run  func(bench.Options, io.Writer) error
}

// table adapts a measure/print pair to a figure's run.
func table[T any](measure func(bench.Options) (T, error), print func(io.Writer, T)) func(bench.Options, io.Writer) error {
	return func(o bench.Options, w io.Writer) error {
		v, err := measure(o)
		if err != nil {
			return err
		}
		print(w, v)
		return nil
	}
}

// figures lists every figure in the order "all" runs them.
var figures = []figure{
	{"1", table(bench.Fig1, bench.PrintFig1)},
	{"3", table(bench.Fig3, bench.PrintFig3)},
	{"6", table(bench.Fig6, bench.PrintFig6)},
	{"7", table(bench.Fig7, bench.PrintFig7)},
	{"8", table(bench.Fig8, bench.PrintFig8)},
	{"expansion", table(func(bench.Options) ([]bench.ExpansionRow, error) { return bench.Expansion() }, bench.PrintExpansion)},
	{"amortization", table(bench.Amortization, bench.PrintAmortization)},
	{"ablations", func(o bench.Options, w io.Writer) error {
		stages, err := bench.AblationRegistrationStages(o)
		if err != nil {
			return err
		}
		conv, err := bench.AblationConversion(o)
		if err != nil {
			return err
		}
		fast, err := bench.AblationFastPaths(o)
		if err != nil {
			return err
		}
		bench.PrintAblations(w, stages, conv, fast)
		return nil
	}},
	{"allocs", table(bench.Allocs, bench.PrintAllocs)},
}

func main() {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	fig := flag.String("fig", "all", "comma-separated figures to regenerate: "+strings.Join(names, ", ")+", or all")
	quick := flag.Bool("quick", false, "use fast, low-precision measurement settings")
	metricsAddr := flag.String("metrics", "", "serve the process obs registry at /metrics on this HTTP address while running (empty: disabled)")
	stats := flag.Bool("stats", false, "dump the process obs registry as JSON to stderr after the run")
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
	err := run(*fig, opts, os.Stdout)
	if *stats {
		obs.Default().WriteJSON(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmitbench:", err)
		os.Exit(1)
	}
}

// run regenerates the comma-separated figures in figs, each followed by a
// blank line.  Every name is checked before anything runs.
func run(figs string, opts bench.Options, out io.Writer) error {
	wanted := make(map[string]bool)
	for _, name := range strings.Split(figs, ",") {
		if name = strings.TrimSpace(name); name != "" {
			wanted[name] = true
		}
	}
	if len(wanted) == 0 {
		return fmt.Errorf("no figure named in %q", figs)
	}
	for name := range wanted {
		if name != "all" && !slices.ContainsFunc(figures, func(f figure) bool { return f.name == name }) {
			return fmt.Errorf("unknown figure %q", name)
		}
	}
	for _, f := range figures {
		if wanted["all"] || wanted[f.name] {
			if err := f.run(opts, out); err != nil {
				return fmt.Errorf("figure %s: %w", f.name, err)
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}
