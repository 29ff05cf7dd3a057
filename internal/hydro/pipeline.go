package hydro

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// PipelineConfig parameterises a run of the component pipeline of the
// paper's Figure 5: data source -> presend -> flow2d -> coupler -> N
// Vis5D-style sinks, with control feedback flowing back through the
// coupler.
type PipelineConfig struct {
	// Grid configures the simulation.
	Grid Config
	// Steps is the number of solver steps to run (default 10).
	Steps int
	// EmitEvery sends a frame downstream every k steps (default 1).
	EmitEvery int
	// Downsample is the presend decimation factor (default 1 = off).
	Downsample int
	// Sinks is the number of visualization clients (default 2, as in the
	// paper's figure).
	Sinks int
	// SchemaURL, when non-empty, is where components discover the
	// message formats; otherwise the embedded document is used.
	SchemaURL string
	// ArchivePath, when non-empty, makes the coupler archive every frame
	// it broadcasts into a self-describing PBIO data file (readable with
	// cmd/pbfdump or transport.NewFileReader on any platform).
	ArchivePath string
	// UseTCP wires the components over loopback TCP connections instead
	// of in-process pipes, exercising the same paths a distributed
	// deployment would.
	UseTCP bool
	// MixedPlatforms gives every component a different simulated ABI
	// (cycling through all of them), so each hop crosses byte orders and
	// word sizes — the heterogeneous machine room of the paper's
	// introduction.
	MixedPlatforms bool
	// Platform is the simulated wire platform for every component
	// (default sparc32, the paper's testbed).
	Platform *platform.Platform
}

func (c *PipelineConfig) applyDefaults() {
	if c.Steps == 0 {
		c.Steps = 10
	}
	if c.EmitEvery == 0 {
		c.EmitEvery = 1
	}
	if c.Downsample == 0 {
		c.Downsample = 1
	}
	if c.Sinks == 0 {
		c.Sinks = 2
	}
	if c.Platform == nil {
		c.Platform = platform.Sparc32
	}
	if c.Grid.Nx == 0 {
		c.Grid.Nx = 32
	}
	if c.Grid.Ny == 0 {
		c.Grid.Ny = 32
	}
}

// SinkReport summarises what one visualization sink observed.
type SinkReport struct {
	Name        string
	Frames      int
	LastStep    int32
	MinH, MaxH  float32
	FeedbackOut int
}

// RunReport summarises a pipeline run.
type RunReport struct {
	StepsRun        int
	FramesEmitted   int
	Sinks           []SinkReport
	ControlReceived int // control messages the solver saw
	Joins           int // JoinRequests the coupler saw
	FinalMeta       GridMeta
}

// component bundles the per-process state each pipeline stage owns: its own
// XMIT toolkit and PBIO context (components are separate programs in the
// paper; nothing is shared but the schema document and the wire).
type component struct {
	name string
	tk   *core.Toolkit
	ctx  *pbio.Context
	fmts *Formats
}

func newComponent(name string, cfg *PipelineConfig, idx int) (*component, error) {
	p := cfg.Platform
	if cfg.MixedPlatforms {
		all := platform.All()
		p = all[idx%len(all)]
	}
	c := &component{
		name: name,
		tk:   core.NewToolkit(),
		ctx:  pbio.NewContext(pbio.WithPlatform(p)),
	}
	fmts, err := LoadFormats(c.tk, cfg.SchemaURL, c.ctx)
	if err != nil {
		return nil, fmt.Errorf("hydro: component %s: %w", name, err)
	}
	c.fmts = fmts
	return c, nil
}

func (c *component) join(conn *transport.Conn, pid uint32) error {
	b, err := c.ctx.Bind(c.fmts.JoinRequest, &JoinRequest{})
	if err != nil {
		return err
	}
	return conn.Send(b, &JoinRequest{Name: c.name, Server: 1, IPAddr: 0x7f000001, Pid: pid})
}

// RunPipeline wires the components with in-process transports and runs the
// whole application to completion.
func RunPipeline(cfg PipelineConfig) (*RunReport, error) {
	cfg.applyDefaults()

	source, err := newComponent("data-source", &cfg, 0)
	if err != nil {
		return nil, err
	}
	presend, err := newComponent("presend", &cfg, 1)
	if err != nil {
		return nil, err
	}
	flow, err := newComponent("flow2d", &cfg, 2)
	if err != nil {
		return nil, err
	}
	coupler, err := newComponent("coupler", &cfg, 3)
	if err != nil {
		return nil, err
	}
	sinks := make([]*component, cfg.Sinks)
	for i := range sinks {
		if sinks[i], err = newComponent(fmt.Sprintf("vis5d-%d", i), &cfg, 4+i); err != nil {
			return nil, err
		}
	}

	// Wire the dataflow of Figure 5.
	srcOut, preIn, err := connect(source.ctx, presend.ctx, cfg.UseTCP)
	if err != nil {
		return nil, err
	}
	preOut, flowIn, err := connect(presend.ctx, flow.ctx, cfg.UseTCP)
	if err != nil {
		return nil, err
	}
	flowOut, coupIn, err := connect(flow.ctx, coupler.ctx, cfg.UseTCP)
	if err != nil {
		return nil, err
	}
	sinkConns := make([]*transport.Conn, cfg.Sinks) // coupler side
	sinkEnds := make([]*transport.Conn, cfg.Sinks)  // sink side
	for i := range sinkConns {
		if sinkConns[i], sinkEnds[i], err = connect(coupler.ctx, sinks[i].ctx, cfg.UseTCP); err != nil {
			return nil, err
		}
	}

	report := &RunReport{Sinks: make([]SinkReport, cfg.Sinks)}
	var joins, controlSeen atomic.Int64

	errc := make(chan error, 4+cfg.Sinks)
	var wg sync.WaitGroup
	run := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil && !isClosed(err) {
				errc <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}

	run("data-source", func() error {
		defer srcOut.Close()
		return runDataSource(source, srcOut, cfg)
	})
	run("presend", func() error {
		defer preOut.Close()
		return runPreSend(presend, preIn, preOut, cfg, &joins)
	})
	run("flow2d", func() error {
		defer flowOut.Close()
		return runFlow2D(flow, flowIn, flowOut, cfg, report, &controlSeen, &joins)
	})
	var archive *transport.Conn
	if cfg.ArchivePath != "" {
		f, err := os.Create(cfg.ArchivePath)
		if err != nil {
			return nil, err
		}
		archive = transport.NewFileWriter(f, coupler.ctx)
	}
	run("coupler", func() error {
		// Closing the solver-facing end last is the solver's signal that
		// every piece of sink feedback has been forwarded (see runFlow2D).
		defer coupIn.Close()
		for _, sc := range sinkConns {
			defer sc.Close()
		}
		err := runCoupler(coupler, coupIn, sinkConns, flowOut, &joins, archive)
		if archive != nil {
			// Close flushes the archive's buffered frames.
			if cerr := archive.Close(); err == nil {
				err = cerr
			}
		}
		return err
	})
	for i := range sinks {
		i := i
		run(sinks[i].name, func() error {
			defer sinkEnds[i].Close()
			return runSink(sinks[i], sinkEnds[i], &report.Sinks[i])
		})
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		return nil, err
	}
	report.Joins = int(joins.Load())
	report.ControlReceived = int(controlSeen.Load())
	return report, nil
}

func isClosed(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	// A TCP peer that exits after close surfaces as a reset on Linux.
	var opErr *net.OpError
	return errors.As(err, &opErr)
}

// connect joins two components' contexts with either an in-process pipe or
// a loopback TCP connection.  The first return value is the a-side
// connection, the second the b-side.
func connect(a, b *pbio.Context, useTCP bool) (*transport.Conn, *transport.Conn, error) {
	if !useTCP {
		ca, cb := transport.Pipe(a, b)
		return ca, cb, nil
	}
	ln, err := transport.Listen("127.0.0.1:0", b)
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		conn *transport.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		acc <- accepted{conn, err}
	}()
	ca, err := transport.Dial(ln.Addr(), a)
	if err != nil {
		return nil, nil, err
	}
	got := <-acc
	if got.err != nil {
		ca.Close()
		return nil, nil, got.err
	}
	return ca, got.conn, nil
}

// runDataSource "reads the data file": it builds the initial simulation
// state and ships grid metadata, terrain, and initial water downstream.
func runDataSource(c *component, out *transport.Conn, cfg PipelineConfig) error {
	if err := c.join(out, 100); err != nil {
		return err
	}
	sim, err := NewSim(cfg.Grid)
	if err != nil {
		return err
	}
	gm := sim.Meta(0)
	gm.Nsteps = int32(cfg.Steps)
	bGM, err := c.ctx.Bind(c.fmts.GridMeta, &GridMeta{})
	if err != nil {
		return err
	}
	if err := out.Send(bGM, &gm); err != nil {
		return err
	}
	bSD, err := c.ctx.Bind(c.fmts.SimpleData, &SimpleData{})
	if err != nil {
		return err
	}
	terrain := make([]float32, len(sim.B))
	for k, b := range sim.B {
		terrain[k] = float32(b)
	}
	// Timestep -1 tags the terrain field, -2 the initial water.
	if err := out.Send(bSD, &SimpleData{Timestep: -1, Data: terrain}); err != nil {
		return err
	}
	return out.Send(bSD, &SimpleData{Timestep: -2, Data: sim.HeightField()})
}

// runPreSend forwards the initial dataset, decimating the fields so remote
// components receive a reduced grid.
func runPreSend(c *component, in, out *transport.Conn, cfg PipelineConfig, joins *atomic.Int64) error {
	if err := c.join(out, 101); err != nil {
		return err
	}
	bGM, err := c.ctx.Bind(c.fmts.GridMeta, &GridMeta{})
	if err != nil {
		return err
	}
	bSD, err := c.ctx.Bind(c.fmts.SimpleData, &SimpleData{})
	if err != nil {
		return err
	}
	var nx, ny int
	for {
		f, body, err := in.RecvMessage()
		if err != nil {
			if isClosed(err) {
				return nil
			}
			return err
		}
		switch f.Name {
		case "JoinRequest":
			joins.Add(1)
		case "GridMeta":
			var gm GridMeta
			if err := c.ctx.DecodeBody(f, body, &gm); err != nil {
				return err
			}
			nx, ny = int(gm.Nx), int(gm.Ny)
			if cfg.Downsample > 1 {
				gm.Nx = int32((nx + cfg.Downsample - 1) / cfg.Downsample)
				gm.Ny = int32((ny + cfg.Downsample - 1) / cfg.Downsample)
				gm.Dx *= float32(cfg.Downsample)
				gm.Dy *= float32(cfg.Downsample)
			}
			if err := out.Send(bGM, &gm); err != nil {
				return err
			}
		case "SimpleData":
			var sd SimpleData
			if err := c.ctx.DecodeBody(f, body, &sd); err != nil {
				return err
			}
			if cfg.Downsample > 1 && nx > 0 {
				reduced, _, _, err := Downsample(sd.Data, nx, ny, cfg.Downsample)
				if err != nil {
					return err
				}
				sd.Data = reduced
				sd.Size = int32(len(reduced))
			}
			if err := out.Send(bSD, &sd); err != nil {
				return err
			}
		}
	}
}

// runFlow2D reconstructs the simulation from the incoming dataset, steps
// it, and emits per-step frames; a reader goroutine absorbs control
// feedback arriving on the downstream connection.  The solver stops reading
// at the coupler's EOF, not at its own last frame: the coupler closes its end
// only after the sinks' feedback pumps have drained, so every control message
// a sink sent has been counted by the time runFlow2D returns.
func runFlow2D(c *component, in, out *transport.Conn, cfg PipelineConfig,
	report *RunReport, controlSeen *atomic.Int64, joins *atomic.Int64) error {
	if err := c.join(out, 102); err != nil {
		return err
	}
	// Gather the initial dataset: GridMeta, terrain, water.
	var gm GridMeta
	var terrain, water []float32
	for gm.Nx == 0 || terrain == nil || water == nil {
		f, body, err := in.RecvMessage()
		if err != nil {
			return fmt.Errorf("awaiting dataset: %w", err)
		}
		switch f.Name {
		case "JoinRequest":
			joins.Add(1)
		case "GridMeta":
			if err := c.ctx.DecodeBody(f, body, &gm); err != nil {
				return err
			}
		case "SimpleData":
			var sd SimpleData
			if err := c.ctx.DecodeBody(f, body, &sd); err != nil {
				return err
			}
			switch sd.Timestep {
			case -1:
				terrain = sd.Data
			case -2:
				water = sd.Data
			}
		}
	}
	grid := cfg.Grid
	grid.Nx, grid.Ny = int(gm.Nx), int(gm.Ny)
	sim, err := NewSim(grid)
	if err != nil {
		return err
	}
	if len(terrain) == len(sim.B) {
		for k := range sim.B {
			sim.B[k] = float64(terrain[k])
			sim.H[k] = float64(water[k])
		}
	}

	// Control feedback arrives asynchronously from the coupler.
	var isoLevel atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var ctl ControlMsg
		for {
			if _, err := out.Recv(&ctl); err != nil {
				return
			}
			controlSeen.Add(1)
			if ctl.Command == CmdSetIso {
				isoLevel.Add(1)
			}
		}
	}()

	bGM, err := c.ctx.Bind(c.fmts.GridMeta, &GridMeta{})
	if err != nil {
		return err
	}
	bSD, err := c.ctx.Bind(c.fmts.SimpleData, &SimpleData{})
	if err != nil {
		return err
	}
	bCM, err := c.ctx.Bind(c.fmts.ControlMsg, &ControlMsg{})
	if err != nil {
		return err
	}
	frame := int32(0)
	for step := 1; step <= cfg.Steps; step++ {
		sim.StepOnce()
		if step%cfg.EmitEvery != 0 {
			continue
		}
		frame++
		m := sim.Meta(frame)
		m.Nsteps = int32(cfg.Steps)
		m.IsoLevels = int32(isoLevel.Load())
		if err := out.Send(bGM, &m); err != nil {
			return err
		}
		sd := SimpleData{Timestep: int32(step), Data: sim.HeightField()}
		if err := out.Send(bSD, &sd); err != nil {
			return err
		}
		report.FinalMeta = m
	}
	report.StepsRun = cfg.Steps
	report.FramesEmitted = int(frame)
	// Announce end-of-stream downstream, then read feedback until the
	// coupler hangs up.
	if err := out.Send(bCM, &ControlMsg{Command: CmdShutdown, Timestep: int32(cfg.Steps)}); err != nil {
		return err
	}
	<-readerDone
	return nil
}

// runCoupler broadcasts solver frames to every sink, funnels sink feedback
// upstream to the solver, and optionally archives the data stream to a
// PBIO file.
func runCoupler(c *component, in *transport.Conn, sinks []*transport.Conn,
	upstream *transport.Conn, joins *atomic.Int64, archive *transport.Conn) error {
	bCM, err := c.ctx.Bind(c.fmts.ControlMsg, &ControlMsg{})
	if err != nil {
		return err
	}
	// Feedback pumps: one reader per sink connection, dispatching join
	// requests and forwarding control feedback upstream (the incoming
	// connection is bidirectional).
	var fwg sync.WaitGroup
	for _, sc := range sinks {
		sc := sc
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			for {
				f, body, err := sc.RecvMessage()
				if err != nil {
					return
				}
				switch f.Name {
				case "JoinRequest":
					joins.Add(1)
				case "ControlMsg":
					var ctl ControlMsg
					if err := c.ctx.DecodeBody(f, body, &ctl); err != nil {
						return
					}
					if err := in.Send(bCM, &ctl); err != nil {
						return
					}
				}
			}
		}()
	}

	var gm GridMeta
	var sd SimpleData
	var ctl ControlMsg
	bGM, _ := c.ctx.Bind(c.fmts.GridMeta, &GridMeta{})
	bSD, _ := c.ctx.Bind(c.fmts.SimpleData, &SimpleData{})
	done := false
	for !done {
		f, body, err := in.RecvMessage()
		if err != nil {
			if isClosed(err) {
				break
			}
			return err
		}
		switch f.Name {
		case "JoinRequest":
			joins.Add(1)
		case "GridMeta":
			if err := c.ctx.DecodeBody(f, body, &gm); err != nil {
				return err
			}
			for _, sc := range sinks {
				if err := sc.Send(bGM, &gm); err != nil {
					return err
				}
			}
			if archive != nil {
				if err := archive.Send(bGM, &gm); err != nil {
					return err
				}
			}
		case "SimpleData":
			if err := c.ctx.DecodeBody(f, body, &sd); err != nil {
				return err
			}
			for _, sc := range sinks {
				if err := sc.Send(bSD, &sd); err != nil {
					return err
				}
			}
			if archive != nil {
				if err := archive.Send(bSD, &sd); err != nil {
					return err
				}
			}
		case "ControlMsg":
			if err := c.ctx.DecodeBody(f, body, &ctl); err != nil {
				return err
			}
			for _, sc := range sinks {
				if err := sc.Send(bCM, &ctl); err != nil {
					return err
				}
			}
			if ctl.Command == CmdShutdown {
				done = true
			}
		}
	}
	fwg.Wait()
	return nil
}

// runSink plays the Vis5D GUI role: consume frames, track display
// statistics, and send viewpoint feedback after the first frame.
func runSink(c *component, conn *transport.Conn, rep *SinkReport) error {
	rep.Name = c.name
	rep.MinH = float32(1e30)
	rep.MaxH = float32(-1e30)
	if err := c.join(conn, 200); err != nil {
		return err
	}
	bCM, err := c.ctx.Bind(c.fmts.ControlMsg, &ControlMsg{})
	if err != nil {
		return err
	}
	var gm GridMeta
	for {
		f, body, err := conn.RecvMessage()
		if err != nil {
			if isClosed(err) {
				return nil
			}
			return err
		}
		switch f.Name {
		case "GridMeta":
			if err := c.ctx.DecodeBody(f, body, &gm); err != nil {
				return err
			}
		case "SimpleData":
			var sd SimpleData
			if err := c.ctx.DecodeBody(f, body, &sd); err != nil {
				return err
			}
			rep.Frames++
			rep.LastStep = sd.Timestep
			for _, h := range sd.Data {
				if h < rep.MinH {
					rep.MinH = h
				}
				if h > rep.MaxH {
					rep.MaxH = h
				}
			}
			if rep.Frames == 1 {
				fb := ControlMsg{Command: CmdSetIso, IsoLevel: (rep.MinH + rep.MaxH) / 2}
				if err := conn.Send(bCM, &fb); err != nil {
					return err
				}
				rep.FeedbackOut++
			}
		case "ControlMsg":
			var ctl ControlMsg
			if err := c.ctx.DecodeBody(f, body, &ctl); err != nil {
				return err
			}
			if ctl.Command == CmdShutdown {
				return nil
			}
		}
	}
}
