package hydro

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// TestPipelineArchive runs the pipeline with archiving and replays the
// resulting PBIO file with an empty context: the file must be fully
// self-describing and its contents consistent with the run report.
func TestPipelineArchive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.pbf")
	rep, err := RunPipeline(PipelineConfig{
		Grid:        Config{Nx: 16, Ny: 16, Seed: 8},
		Steps:       5,
		Sinks:       1,
		ArchivePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := transport.NewFileReader(f, pbio.NewContext(pbio.WithPlatform(platform.X8664)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var metas, frames int
	var lastStep int32
	for {
		f, body, err := r.RecvMessage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.Name {
		case "GridMeta":
			metas++
			var gm GridMeta
			if err := r.Context().DecodeBody(f, body, &gm); err != nil {
				t.Fatal(err)
			}
			if gm.Nx != 16 || gm.Ny != 16 {
				t.Errorf("archived grid %dx%d", gm.Nx, gm.Ny)
			}
		case "SimpleData":
			frames++
			var sd SimpleData
			if err := r.Context().DecodeBody(f, body, &sd); err != nil {
				t.Fatal(err)
			}
			if int(sd.Size) != 16*16 {
				t.Errorf("archived frame has %d values", sd.Size)
			}
			lastStep = sd.Timestep
		default:
			t.Errorf("unexpected archived format %q", f.Name)
		}
	}
	if metas != rep.FramesEmitted || frames != rep.FramesEmitted {
		t.Errorf("archived %d metas / %d frames, want %d each", metas, frames, rep.FramesEmitted)
	}
	if lastStep != int32(rep.StepsRun) {
		t.Errorf("last archived step = %d, want %d", lastStep, rep.StepsRun)
	}
}

// TestPipelineArchiveFlushError: a short run's frames sit in the archive's
// write buffer until Close flushes them, so a failing flush must fail the
// run rather than leave a silently truncated file.
func TestPipelineArchiveFlushError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to make the flush fail")
	}
	_, err := RunPipeline(PipelineConfig{
		Grid:        Config{Nx: 4, Ny: 4, Seed: 8},
		Steps:       1,
		Sinks:       1,
		ArchivePath: "/dev/full",
	})
	if err == nil {
		t.Fatal("the run succeeded although the archive could not be written")
	}
}
