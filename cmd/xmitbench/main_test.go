package main

import (
	"io"
	"strings"
	"testing"

	"github.com/open-metadata/xmit/internal/bench"
)

// TestFiguresQuick runs every figure xmitbench names, once, under the quick
// measurement settings.
func TestFiguresQuick(t *testing.T) {
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) {
			if err := run(f.name, bench.QuickOptions(), io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFig8PrintsDecode: -fig 8 prints the receive-side table as well as
// the encode table, since the §4.1 claim about XML lives on decode.
func TestFig8PrintsDecode(t *testing.T) {
	var out strings.Builder
	if err := run("8", bench.QuickOptions(), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"send-side encode times", "decode times", "XML/PBIO"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-fig 8 output missing %q:\n%s", want, out.String())
		}
	}
}

// TestUnknownFigure: a name that is not a figure fails before any figure
// runs, alone or beside known names.
func TestUnknownFigure(t *testing.T) {
	for _, figs := range []string{"fanout", "8,writev", "", " , "} {
		var out strings.Builder
		if err := run(figs, bench.QuickOptions(), &out); err == nil {
			t.Errorf("run(%q) succeeded, want an error", figs)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before failing", figs, out.String())
		}
	}
}
