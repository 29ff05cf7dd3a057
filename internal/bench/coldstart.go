// The coldstart figure: what a persistent store buys at daemon startup.
//
// A directory server restarting with an empty catalogue has two ways to get
// its formats back: replay them from a local content-addressed store
// (echod/fmtserver -store), or fetch every canonical body over HTTP from
// whoever still has it.  The figure measures both — plus the registry
// journal-replay path that rebuilds lineage histories — as registrations
// per second over catalogues of growing size, so the headline "warm from
// disk beats remote fetch" claim carries a number the regression gate can
// hold onto.

package bench

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"

	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/registry"
	"github.com/open-metadata/xmit/internal/store"
)

// ColdstartCounts is the x-axis: catalogue sizes to warm, up to the
// 10⁴-entry catalogues of the grid metadata services in PAPERS.md.
var ColdstartCounts = []int{100, 1000, 10000}

// ColdstartRow reports one catalogue size: registrations per second when
// warming a fmtserver catalogue from the stored formats, when replaying
// lineage histories from the registry journal, and when fetching every
// canonical body over loopback HTTP.  The two store paths are timed as the
// restarts they are — each iteration opens the store afresh, so reading and
// indexing the format pack is inside the number.
type ColdstartRow struct {
	Formats int

	WarmRegsPerSec   float64 // stored formats -> fmtserver catalogue
	ReplayRegsPerSec float64 // journal replay -> lineage registry
	RemoteRegsPerSec float64 // HTTP fetch per format -> fmtserver catalogue
	Speedup          float64 // warm vs remote

	// ReplayMicrosPerReg is the replay cost of one registration.  Recovery
	// is linear when this column is flat down the catalogue sizes.
	ReplayMicrosPerReg float64
}

// coldstartFormats builds n distinct formats, each its own lineage.
func coldstartFormats(n int) ([]*meta.Format, error) {
	out := make([]*meta.Format, 0, n)
	for i := 0; i < n; i++ {
		f, err := meta.Build(fmt.Sprintf("cold%05d", i), Paper, []meta.FieldDef{
			{Name: "seq", Kind: meta.Unsigned, Class: platform.LongLong},
			{Name: "value", Kind: meta.Float, Class: platform.Double},
			{Name: "pad", Kind: meta.Integer, Class: platform.Int, StaticDim: 4},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Coldstart runs the warm-from-disk vs remote-fetch experiment at the
// standard catalogue sizes.
func Coldstart(o Options) ([]ColdstartRow, error) {
	return ColdstartSizes(o, ColdstartCounts)
}

// ColdstartSizes is Coldstart with caller-chosen catalogue sizes.
func ColdstartSizes(o Options, counts []int) ([]ColdstartRow, error) {
	var rows []ColdstartRow
	for _, n := range counts {
		row, err := coldstartRun(o, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func coldstartRun(o Options, n int) (ColdstartRow, error) {
	row := ColdstartRow{Formats: n}
	formats, err := coldstartFormats(n)
	if err != nil {
		return row, err
	}

	dir, err := os.MkdirTemp("", "xmitbench-coldstart-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	// Sync off: the figure measures the read path; an fsync per format
	// would only slow down the one-time seeding below.
	reopen := func() (*store.Store, error) { return store.Open(dir, store.WithSync(false)) }

	// Seed the store the way a live daemon would have: every format through
	// the journaling observer, so the pack and the journal both exist.  No
	// snapshot — replay must walk the journal.
	st, err := reopen()
	if err != nil {
		return row, err
	}
	seedReg := registry.New(registry.WithDefaultPolicy(registry.PolicyBackward))
	if _, err := st.PersistRegistry(seedReg); err != nil {
		st.Close()
		return row, err
	}
	seed := make([]registry.Update, len(formats))
	for i, f := range formats {
		seed[i] = registry.Update{Lineage: f.Name, Mutations: []registry.Mutation{{Format: f, Source: "bench"}}}
	}
	seedReg.Apply(seed)
	err = st.Err()
	st.Close()
	if err != nil {
		return row, err
	}

	// Warm: a restart that fills a fresh fmtserver catalogue, per iteration.
	perNs, err := timeOp(o, func() error {
		st, err := reopen()
		if err != nil {
			return err
		}
		defer st.Close()
		warmed, err := fmtserver.NewRegistry().WarmFromStore(st)
		if err != nil {
			return err
		}
		if warmed != n {
			return fmt.Errorf("warmed %d formats, want %d", warmed, n)
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	row.WarmRegsPerSec = float64(n) / (perNs / 1e9)

	// Replay: a restart that rebuilds a fresh lineage registry from the
	// journal, per iteration.
	perNs, err = timeOp(o, func() error {
		st, err := reopen()
		if err != nil {
			return err
		}
		defer st.Close()
		rs, err := st.RecoverRegistry(registry.New(registry.WithDefaultPolicy(registry.PolicyBackward)))
		if err != nil {
			return err
		}
		if rs.Versions != n {
			return fmt.Errorf("recovered %d versions, want %d", rs.Versions, n)
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	row.ReplayRegsPerSec = float64(n) / (perNs / 1e9)
	row.ReplayMicrosPerReg = perNs / 1e3 / float64(n)

	// Remote: every canonical body over loopback HTTP through the discovery
	// repository (fresh per iteration — a cold cache is the point), then
	// registered.  This is the restart a store-less daemon pays.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var i int
		if _, err := fmt.Sscanf(r.URL.Path, "/fmt/%d", &i); err != nil || i < 0 || i >= n {
			http.NotFound(w, r)
			return
		}
		w.Write(formats[i].Canonical())
	}))
	defer srv.Close()
	perNs, err = timeOp(o, func() error {
		repo := discovery.NewRepository()
		cat := fmtserver.NewRegistry()
		for i := 0; i < n; i++ {
			data, err := repo.Fetch(fmt.Sprintf("%s/fmt/%d", srv.URL, i))
			if err != nil {
				return err
			}
			if _, err := cat.RegisterCanonical(data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	row.RemoteRegsPerSec = float64(n) / (perNs / 1e9)

	if row.RemoteRegsPerSec > 0 {
		row.Speedup = row.WarmRegsPerSec / row.RemoteRegsPerSec
	}
	return row, nil
}

// ColdstartRecords flattens the figure for the JSON gate.  The speedup is a
// ratio and the replay cost a time per operation, not rates, so only the
// three regs/s columns gate.
func ColdstartRecords(rows []ColdstartRow) []JSONRecord {
	var out []JSONRecord
	for _, r := range rows {
		cfg := fmt.Sprintf("%dformats", r.Formats)
		out = append(out,
			record("coldstart", cfg, "warm_regs", r.WarmRegsPerSec, "regs/s"),
			record("coldstart", cfg, "replay_regs", r.ReplayRegsPerSec, "regs/s"),
			record("coldstart", cfg, "remote_regs", r.RemoteRegsPerSec, "regs/s"),
			record("coldstart", cfg, "speedup", r.Speedup, "ratio"),
			record("coldstart", cfg, "replay_cost", r.ReplayMicrosPerReg, "us/reg"),
		)
	}
	return out
}

// PrintColdstart renders the warm-from-disk table.
func PrintColdstart(w io.Writer, rows []ColdstartRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Cold start: registrations/s warming a catalogue from local store vs remote fetch\n")
	fmt.Fprintf(w, "%8s %14s %14s %14s %14s %10s\n",
		"formats", "warm regs/s", "replay regs/s", "replay us/reg", "remote regs/s", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %14.0f %14.0f %14.2f %14.0f %10.1f\n",
			r.Formats, r.WarmRegsPerSec, r.ReplayRegsPerSec, r.ReplayMicrosPerReg, r.RemoteRegsPerSec, r.Speedup)
	}
}
