package echan

import (
	"fmt"
	"io"
	"testing"

	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/platform"
)

// BenchmarkFanout measures the publish hot path against discard subscribers
// at the widths of the fan-out experiment; -benchtime=1x makes it a smoke
// test in CI.  The subscribers are io.Writers, so every event goes through
// a subscription queue and a writer goroutine.
func BenchmarkFanout(b *testing.B) {
	benchFanout(b, func(ch *Channel) (*Subscription, error) { return ch.Subscribe(io.Discard, Block) })
}

// BenchmarkFanoutDirect is BenchmarkFanout with in-process sinks, which the
// fan-out worker calls directly: the same fan-out minus the per-subscriber
// queue and wake-up.
func BenchmarkFanoutDirect(b *testing.B) {
	benchFanout(b, func(ch *Channel) (*Subscription, error) { return ch.SubscribeSink(discardSink{}, Block) })
}

func benchFanout(b *testing.B, subscribe func(*Channel) (*Subscription, error)) {
	for _, subs := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			broker := NewBroker(WithRegistry(obs.NewRegistry()))
			defer broker.Close()
			ch, err := broker.Create("bench", WithQueue(256))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < subs; i++ {
				if _, err := subscribe(ch); err != nil {
					b.Fatal(err)
				}
			}
			_, bind := eventBinding(b, platform.X8664)
			ev := &Event{Seq: 1, Temp: 21.5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Seq = int32(i)
				if err := ch.Publish(bind, ev); err != nil {
					b.Fatal(err)
				}
			}
			ch.Sync()
		})
	}
}
