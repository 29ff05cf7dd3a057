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
