// Package xmit_test holds the repository-level benchmark suite: one
// testing.B benchmark family per table/figure in the paper's evaluation.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each family runs the operations internal/bench builds for its figure, the
// same ones `go run ./cmd/xmitbench` times as the paper's tables and
// internal/bench's TestPaperClaims checks the paper's shapes against.
package xmit_test

import (
	"testing"

	"github.com/open-metadata/xmit/internal/bench"
	"github.com/open-metadata/xmit/internal/hydro"
)

// runRows fails on a fixture error, then runs every op of every row as a
// sub-benchmark under the op's name.
func runRows(b *testing.B, rows [][]bench.Op, err error) {
	if err != nil {
		b.Fatal(err)
	}
	for _, ops := range rows {
		for _, op := range ops {
			b.Run(op.Name, func(b *testing.B) {
				b.SetBytes(int64(op.Bytes))
				for i := 0; i < b.N; i++ {
					if err := op.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Figures 3 and 6: registration cost, PBIO vs XMIT ---------------------

func BenchmarkFig3Registration(b *testing.B) {
	rows, err := bench.Fig3Ops()
	runRows(b, rows, err)
}

func BenchmarkFig6Registration(b *testing.B) {
	rows, err := bench.Fig6Ops()
	runRows(b, rows, err)
}

// ---- Figure 7: marshal time, native vs XMIT-generated metadata ------------

func BenchmarkFig7Encode(b *testing.B) {
	rows, err := bench.Fig7Ops()
	runRows(b, rows, err)
}

// ---- Figure 8: encode and decode times by mechanism and size --------------

func BenchmarkFig8Encode(b *testing.B) {
	cases, err := bench.Fig8Cases()
	rows := make([][]bench.Op, len(cases))
	for i, c := range cases {
		rows[i] = c.Encode
	}
	runRows(b, rows, err)
}

// BenchmarkFig8Decode extends Figure 8 to the receive side, where the
// paper's §4.1 "2-4 orders of magnitude" claim about XML lives: text
// parsing is far costlier than text generation.
func BenchmarkFig8Decode(b *testing.B) {
	cases, err := bench.Fig8Cases()
	rows := make([][]bench.Op, len(cases))
	for i, c := range cases {
		rows[i] = c.Decode
	}
	runRows(b, rows, err)
}

// ---- Figure 1: the SimpleData exchange, binary vs XML wire ----------------

// BenchmarkFig1Exchange measures the processing cost of one full exchange
// (sender encode + receiver decode) for each wire format; with wire time
// added at 100 Mb/s, this is the latency comparison behind Figure 1's "XML
// messages are 3 times larger ... twice the latency" discussion.
func BenchmarkFig1Exchange(b *testing.B) {
	ops, _, _, err := bench.Fig1Ops()
	runRows(b, [][]bench.Op{ops}, err)
}

// ---- Application-level benchmark: the Hydrology pipeline ------------------

func BenchmarkHydrologyPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hydro.RunPipeline(hydro.PipelineConfig{
			Grid:  hydro.Config{Nx: 24, Ny: 24, Seed: 5},
			Steps: 4,
			Sinks: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
