// Hydrology: the paper's demonstration application (§4.5), restructured
// around the event-channel broker.  The solver publishes frames to a named
// channel on an in-process echod-style broker; visualization sinks are TCP
// subscribers that join and leave independently — including one that joins
// mid-stream and decodes immediately thanks to in-band format replay — and
// a derived channel applies a server-side filter so a late-phase sink only
// sees the frames it asked for.  The message formats are still discovered
// from a live HTTP metadata server, exactly as the paper deploys them.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/discovery"
	"github.com/open-metadata/xmit/internal/echan"
	"github.com/open-metadata/xmit/internal/hydro"
	"github.com/open-metadata/xmit/internal/pbio"
)

const (
	frameChannel = "hydro.frames"
	hotChannel   = "hydro.hot"
	hotFilter    = "timestep >= 15"

	steps      = 30
	emitEvery  = 3
	lateJoinAt = 15 // solver step after which the late sink subscribes
)

type sinkReport struct {
	name       string
	frames     int // SimpleData frames decoded
	metas      int // GridMeta messages decoded
	firstStep  int32
	lastStep   int32
	minH, maxH float32
	err        error
}

// runSink subscribes to a broker channel with a fresh PBIO context (all
// metadata arrives in-band) and renders frames until the publisher's
// shutdown control message, then unsubscribes and drains to EOF.
func runSink(name, addr, channel string, policy echan.Policy, queue int) sinkReport {
	rep := sinkReport{name: name, firstStep: -1}
	sub, err := echan.DialSubscriber(addr, channel, policy, queue, pbio.NewContext())
	if err != nil {
		rep.err = err
		return rep
	}
	defer sub.Close()
	for {
		f, body, err := sub.RecvMessage()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				rep.err = err
			}
			return rep
		}
		switch f.Name {
		case "SimpleData":
			var d hydro.SimpleData
			if rep.err = sub.Context().DecodeBody(f, body, &d); rep.err != nil {
				return rep
			}
			if rep.frames == 0 {
				rep.firstStep = d.Timestep
				rep.minH, rep.maxH = d.Data[0], d.Data[0]
			}
			rep.frames++
			rep.lastStep = d.Timestep
			for _, h := range d.Data {
				if h < rep.minH {
					rep.minH = h
				}
				if h > rep.maxH {
					rep.maxH = h
				}
			}
		case "GridMeta":
			rep.metas++
		case "ControlMsg":
			var c hydro.ControlMsg
			if rep.err = sub.Context().DecodeBody(f, body, &c); rep.err != nil {
				return rep
			}
			if c.Command == hydro.CmdShutdown {
				// Detach; the broker drains our queue and closes the stream.
				if rep.err = sub.Unsubscribe(); rep.err != nil {
					return rep
				}
			}
		}
	}
}

func main() {
	// Host the schema document, as the paper's Apache server does.
	docs := discovery.NewDocServer()
	docs.Publish("hydrology.xsd", []byte(hydro.SchemaDocument))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, docs)
	url := "http://" + ln.Addr().String() + "/hydrology.xsd"
	fmt.Println("hydrology formats served at", url)

	// The broker: named channels over TCP, like running cmd/echod.
	srv := echan.NewServer(echan.NewBroker())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		srv.Close()
		srv.Broker().Close()
	}()
	fmt.Println("event-channel broker at", addr)

	// Channel layout: raw frames plus a derived channel whose server-side
	// filter passes only the late simulation phase.
	ctl, err := echan.DialControl(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Create(frameChannel); err != nil {
		log.Fatal(err)
	}
	if err := ctl.Derive(hotChannel, frameChannel, hotFilter); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived channel %s = %s where %q\n\n", hotChannel, frameChannel, hotFilter)

	// The solver discovers its formats over HTTP and publishes through the
	// broker.  Sinks attach with fresh contexts: vis-main is there from the
	// start, vis-late joins mid-stream, vis-hot watches the derived channel.
	tk := core.NewToolkit()
	ctx := pbio.NewContext()
	fmts, err := hydro.LoadFormats(tk, url, ctx)
	if err != nil {
		log.Fatal(err)
	}
	pub, err := echan.DialPublisher(addr, frameChannel, ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer pub.Close()

	dataBind, err := ctx.Bind(fmts.SimpleData, &hydro.SimpleData{})
	if err != nil {
		log.Fatal(err)
	}
	metaBind, err := ctx.Bind(fmts.GridMeta, &hydro.GridMeta{})
	if err != nil {
		log.Fatal(err)
	}
	ctrlBind, err := ctx.Bind(fmts.ControlMsg, &hydro.ControlMsg{})
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	reports := make(chan sinkReport, 3)
	launch := func(name, channel string, policy echan.Policy, queue int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports <- runSink(name, addr, channel, policy, queue)
		}()
	}
	// The broker does not replay event data — only format announcements — so
	// a sink must be attached before the frames it wants are published.
	// waitSubs is the application-level barrier: poll the channel's
	// subscriber gauge over the control connection.
	waitSubs := func(channel string, n int64) {
		for {
			st, err := ctl.Stats(channel)
			if err != nil {
				log.Fatal(err)
			}
			if st.Subscribers >= n {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	launch("vis-main", frameChannel, echan.Block, 0)
	launch("vis-hot", hotChannel, echan.Block, 0)
	waitSubs(frameChannel, 1)
	waitSubs(hotChannel, 1)

	sim, err := hydro.NewSim(hydro.Config{Nx: 64, Ny: 48, Seed: 1849, Rain: 0.0002})
	if err != nil {
		log.Fatal(err)
	}
	frames, lateJoined := 0, false
	for step := 1; step <= steps; step++ {
		sim.StepOnce()
		if step > lateJoinAt && !lateJoined {
			// Mid-stream joiner: its first data frame is preceded, in-band,
			// by every format announcement it missed.
			launch("vis-late", frameChannel, echan.DropOldest, 8)
			waitSubs(frameChannel, 2)
			lateJoined = true
		}
		if step%emitEvery != 0 {
			continue
		}
		cfg := sim.Config()
		field, nx, ny, err := hydro.Downsample(sim.HeightField(), cfg.Nx, cfg.Ny, 2)
		if err != nil {
			log.Fatal(err)
		}
		_ = ny
		if err := pub.Send(dataBind, &hydro.SimpleData{
			Timestep: int32(step), Size: int32(len(field)), Data: field,
		}); err != nil {
			log.Fatal(err)
		}
		gm := sim.Meta(int32(frames))
		gm.Nx = int32(nx)
		if err := pub.Send(metaBind, &gm); err != nil {
			log.Fatal(err)
		}
		frames++
	}
	// Shutdown rides the data channel as a control message; its timestep
	// clears the derived filter so the hot sink hears it too.
	if err := pub.Send(ctrlBind, &hydro.ControlMsg{Command: hydro.CmdShutdown, Timestep: steps + 1}); err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	close(reports)

	fmt.Printf("solver: %d steps, %d frames published via %s\n\n", steps, frames, frameChannel)
	for rep := range reports {
		if rep.err != nil {
			log.Fatalf("sink %s: %v", rep.name, rep.err)
		}
		fmt.Printf("  %-9s %2d frames (steps %d..%d), %2d metadata msgs, h range [%.3f, %.3f]\n",
			rep.name, rep.frames, rep.firstStep, rep.lastStep, rep.metas, rep.minH, rep.maxH)
	}

	names, err := ctl.List()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbroker channel stats:")
	for _, name := range names {
		st, err := ctl.Stats(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s published=%d delivered=%d dropped_oldest=%d dropped_newest=%d block_waits=%d\n",
			name, st.Published, st.Delivered, st.DroppedOldest, st.DroppedNewest, st.BlockWaits)
	}
}
