// Command xmitconform drives the differential conformance harness from the
// command line: property-based cross-codec round-trips over every simulated
// platform pair, and the golden wire-vector corpus gated in CI.
//
//	xmitconform                  run the differential suite (500 cases)
//	xmitconform -seed 8 -n 1     replay one failing case deterministically
//	xmitconform -evolve          run the format-evolution axis: policy-admitted
//	                             lineage chains, registry acceptance,
//	                             version-projection round-trips vs the tree
//	                             reference, and a federated mesh leg projecting
//	                             pinned views through a remote registry built
//	                             from the gossiped lineage document
//	xmitconform -check           verify the golden corpus (CI drift gate)
//	xmitconform -update          regenerate the golden corpus after a
//	                             deliberate wire-format change
//
// Any disagreement prints the replay seed and a minimized format XML, so
// every failure is a reproducible one-liner.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/open-metadata/xmit/internal/conform"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "base seed for the differential run (case i uses seed+i)")
		n      = flag.Int("n", 500, "number of random cases to run")
		short  = flag.Bool("short", false, "run the reduced CI subset (64 cases)")
		check  = flag.Bool("check", false, "verify the golden wire-vector corpus and exit")
		update = flag.Bool("update", false, "regenerate the golden wire-vector corpus and exit")
		dir    = flag.String("dir", filepath.Join("internal", "conform", "testdata", "golden"),
			"golden corpus directory")
		seedFuzz = flag.String("seedfuzz", "",
			"write generator-derived fuzz seed corpora under this repository root and exit")
		evolve  = flag.Bool("evolve", false, "run the format-evolution axis instead of the single-format suite")
		steps   = flag.Int("steps", conform.EvolveSteps, "evolution steps per lineage chain (with -evolve)")
		verbose = flag.Bool("v", false, "print per-codec eligibility counts")
	)
	flag.Parse()

	h := conform.NewHarness()
	switch {
	case *seedFuzz != "":
		if err := conform.SeedFuzzCorpora(*seedFuzz, 8); err != nil {
			fatal(err)
		}
		fmt.Printf("fuzz seed corpora written under %s (dom, xsd, pbio, echan, conform, discovery, store)\n", *seedFuzz)
	case *update:
		if err := h.WriteGolden(*dir, conform.GoldenCount); err != nil {
			fatal(err)
		}
		fmt.Printf("golden corpus regenerated under %s (%d cases, seed %d)\n",
			*dir, conform.GoldenCount, conform.GoldenSeed)
	case *check:
		mismatches, err := h.CheckGolden(*dir, conform.GoldenCount)
		if err != nil {
			fatal(err)
		}
		if len(mismatches) > 0 {
			for _, m := range mismatches {
				fmt.Fprintln(os.Stderr, m)
			}
			fatal(fmt.Errorf("%d golden vector mismatch(es); wire format drifted "+
				"(regenerate deliberately with xmitconform -update)", len(mismatches)))
		}
		fmt.Printf("golden corpus verified: %d cases x %d codec/platform files, no drift\n",
			conform.GoldenCount, len(conform.Platforms())*6)
	case *evolve:
		count := *n
		if *short {
			count = 64
		}
		st, err := h.RunEvolve(*seed, count, *steps)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("conform: evolve axis: %d chains x %d steps, %d projection legs, %d mesh legs, %d wire ops, 0 disagreements\n",
			st.Chains, st.Steps, st.Pairs, st.MeshLegs, st.Checks)
	default:
		count := *n
		if *short {
			count = 64
		}
		st, err := h.Run(*seed, count)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("conform: %d specs x %d platform pairs, %d codec legs, 0 disagreements\n",
			st.Specs, st.Pairs, st.Checks)
		if *verbose {
			names := make([]string, 0, len(st.Eligible))
			for name := range st.Eligible {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("  %-12s eligible for %d/%d specs\n", name, st.Eligible[name], st.Specs)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmitconform:", err)
	os.Exit(1)
}
