// Command pbfdump inspects self-describing PBIO data files (written by
// transport.NewFileWriter, e.g. the Hydrology pipeline's -archive output).  Because
// the file embeds its own metadata, no format knowledge is needed: every
// message decodes as a dynamic record.
//
// Usage:
//
//	pbfdump data.pbf            # one line per message
//	pbfdump -v data.pbf         # full field values
//	pbfdump -formats data.pbf   # just the embedded formats
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/transport"
	"github.com/open-metadata/xmit/internal/xmlwire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("pbfdump: %v", err)
	}
}

// run dumps the data file named in args to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pbfdump", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print full field values")
	formatsOnly := fs.Bool("formats", false, "list embedded formats and exit")
	asXML := fs.Bool("xml", false, "emit each message as an XML document (the text the paper's Figure 1 compares against)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one file argument")
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	ctx := pbio.NewContext()
	r, err := transport.NewFileReader(f, ctx)
	if err != nil {
		f.Close()
		return err
	}
	defer r.Close()

	counts := map[string]int{}
	n := 0
	for {
		rec, err := r.RecvRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("message %d: %w", n, err)
		}
		n++
		f := rec.Format()
		counts[f.Name]++
		if *formatsOnly {
			continue
		}
		if *asXML {
			enc, err := xmlwire.EncodeRecord(nil, rec)
			if err != nil {
				return fmt.Errorf("message %d: %w", n, err)
			}
			fmt.Fprintf(out, "%s\n", enc)
			continue
		}
		if *verbose {
			fmt.Fprintf(out, "#%d %s (%d bytes fixed, %s layout)\n", n, f.Name, f.Size, f.Platform)
			for _, name := range rec.FieldNames() {
				v, _ := rec.Get(name)
				fmt.Fprintf(out, "    %-16s %s\n", name, summarize(v))
			}
		} else {
			fmt.Fprintf(out, "#%-6d %-14s %s\n", n, f.Name, oneLine(rec))
		}
	}

	fmt.Fprintf(out, "\n%d messages", n)
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %s:%d", name, counts[name])
	}
	fmt.Fprintln(out)
	if *formatsOnly {
		for _, name := range names {
			fmt.Fprintln(out, ctx.FormatByName(name).String())
		}
	}
	return nil
}

// summarize renders a field value, abbreviating long arrays.
func summarize(v any) string {
	switch s := v.(type) {
	case []float64:
		return abbreviateLen(len(s), fmt.Sprintf("%v", head(s, 6)))
	case []int64:
		return abbreviateLen(len(s), fmt.Sprintf("%v", head(s, 6)))
	case []uint64:
		return abbreviateLen(len(s), fmt.Sprintf("%v", head(s, 6)))
	case []*pbio.Record:
		return fmt.Sprintf("[%d records]", len(s))
	case *pbio.Record:
		return "{" + oneLine(s) + "}"
	default:
		return fmt.Sprintf("%v", v)
	}
}

func head[T any](s []T, n int) []T {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func abbreviateLen(n int, shown string) string {
	if n > 6 {
		return fmt.Sprintf("%s... (%d values)", strings.TrimSuffix(shown, "]"), n)
	}
	return shown
}

// oneLine renders the first few scalar fields of a record.
func oneLine(rec *pbio.Record) string {
	var parts []string
	for _, name := range rec.FieldNames() {
		if len(parts) >= 4 {
			parts = append(parts, "...")
			break
		}
		v, ok := rec.Get(name)
		if !ok {
			continue
		}
		switch v.(type) {
		case []float64, []int64, []uint64, []*pbio.Record, []byte, []bool:
			parts = append(parts, fmt.Sprintf("%s=%s", name, summarize(v)))
		default:
			parts = append(parts, fmt.Sprintf("%s=%v", name, v))
		}
	}
	return strings.Join(parts, " ")
}
