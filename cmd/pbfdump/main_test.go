package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDumpGolden runs every output mode over the transport package's golden
// data file.  testdata/golden*.txt are what pbfdump printed for that file
// when data files had their own reader, so the output is unchanged by
// reading them through the transport.
func TestDumpGolden(t *testing.T) {
	file := filepath.Join("..", "..", "internal", "transport", "testdata", "golden.pbf")
	for _, mode := range []string{"", "-v", "-formats", "-xml"} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden"+mode+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		args := []string{file}
		if mode != "" {
			args = []string{mode, file}
		}
		if err := run(args, &out); err != nil {
			t.Fatalf("pbfdump %s: %v", mode, err)
		}
		if out.String() != string(want) {
			t.Errorf("pbfdump %s printed\n%s\nwant\n%s", mode, out.String(), want)
		}
	}
}

func TestDumpErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no file argument should fail")
	}
	if err := run([]string{"-nosuchflag", "x.pbf"}, &out); err == nil {
		t.Error("an unknown flag should fail, not exit")
	}
	bad := filepath.Join(t.TempDir(), "bad.pbf")
	if err := os.WriteFile(bad, []byte("NOTMAGIC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
}
