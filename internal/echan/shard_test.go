package echan

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

// TestShardedFIFOOrdering pins the fan-out ordering contract for every
// backpressure policy: with eight socket subscribers behind the one worker,
// each still observes the publisher's sequence in order — Block
// losslessly, the drop policies as a strictly increasing subsequence (drops
// may skip, never reorder or repeat).
func TestShardedFIFOOrdering(t *testing.T) {
	const (
		subscribers = 8
		events      = 400
	)
	for _, policy := range []Policy{Block, DropOldest, DropNewest} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			b := NewBroker(WithRegistry(obs.NewRegistry()))
			defer b.Close()
			ch, err := b.Create("ordered", WithQueue(16))
			if err != nil {
				t.Fatal(err)
			}
			_, bind := eventBinding(t, platform.X8664)

			type result struct {
				got []int32
				err error
			}
			done := make(chan result, subscribers)
			for i := 0; i < subscribers; i++ {
				sink, recv := net.Pipe()
				if _, err := ch.Subscribe(sink, policy); err != nil {
					t.Fatal(err)
				}
				go func() {
					conn := transport.NewConn(recv, pbio.NewContext())
					var res result
					for {
						var ev Event
						if _, err := conn.Recv(&ev); err != nil {
							if err != io.EOF {
								res.err = err
							}
							done <- res
							return
						}
						res.got = append(res.got, ev.Seq)
					}
				}()
			}

			for i := 0; i < events; i++ {
				if err := ch.Publish(bind, &Event{Seq: int32(i), Temp: float64(i)}); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
			}
			ch.Sync()
			ch.Close() // EOFs the sinks so the readers finish

			for i := 0; i < subscribers; i++ {
				res := <-done
				if res.err != nil {
					t.Fatalf("subscriber: %v", res.err)
				}
				last := int32(-1)
				for _, seq := range res.got {
					if seq <= last {
						t.Fatalf("%v: sequence %d after %d (reorder or repeat)", policy, seq, last)
					}
					last = seq
				}
				if policy == Block {
					if len(res.got) != events || res.got[0] != 0 || last != events-1 {
						t.Fatalf("Block subscriber got %d/%d events, first %d last %d",
							len(res.got), events, res.got[0], last)
					}
				} else if len(res.got) == 0 {
					t.Fatalf("%v subscriber received nothing", policy)
				}
			}
		})
	}
}

// TestShardRebalanceHammer churns subscribe/unsubscribe on a channel while
// a publisher streams — the race between the COW sink-set updates, the
// worker's offer loop, and event refcounting.  Run under -race this is the
// churn soak; the closing checks assert no subscriber leaked and no pooled
// buffer was double-released.
func TestShardRebalanceHammer(t *testing.T) {
	b := NewBroker(WithRegistry(obs.NewRegistry()))
	defer b.Close()
	ch, err := b.Create("churn", WithQueue(8))
	if err != nil {
		t.Fatal(err)
	}
	_, bind := eventBinding(t, platform.X8664)

	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ch.Publish(bind, &Event{Seq: int32(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const churners = 8
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 40; i++ {
				policy := []Policy{Block, DropOldest, DropNewest}[rng.Intn(3)]
				sub, err := ch.Subscribe(io.Discard, policy)
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
				if err := sub.Close(); err != nil {
					t.Errorf("churner %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	pubWG.Wait()
	ch.Sync()

	if st := ch.Stats(); st.Subscribers != 0 {
		t.Errorf("subscribers = %d after churn, want 0 (stats %+v)", st.Subscribers, st)
	}
	puts, _ := obs.Default().Value("pbio_pool_put_total")
	gets, _ := obs.Default().Value("pbio_pool_get_total")
	if puts > gets {
		t.Fatalf("pool invariant violated: %v puts > %v gets (double release)", puts, gets)
	}
}
