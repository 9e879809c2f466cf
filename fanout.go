package pinbcast

import (
	"context"
	"net"
	"time"

	"pinbcast/internal/transport"
)

// Fanout is the TCP broadcast sink: it multiplexes one slot stream to
// every subscribed network client over framed TCP. Each subscriber is
// served through its own bounded send queue and writer, so a slow
// subscriber only ever delays itself; one that stalls past the write
// timeout is evicted — the fire-and-forget discipline of the paper's
// one-way medium. Pair it with DialSource on the receiving side:
//
//	ln, _ := net.Listen("tcp", "127.0.0.1:0")
//	fan := pinbcast.NewFanout(ln, 0)
//	defer fan.Close()
//	go station.Broadcast(ctx, fan)
//	// elsewhere, N times over:
//	src, _ := pinbcast.DialSource(fan.Addr().String())
//	rcv, _ := pinbcast.Subscribe(src, ...)
type Fanout struct {
	f *transport.Fanout
}

// NewFanout starts a broadcast fan-out accepting subscribers on ln.
// writeTimeout is the slow-client eviction threshold; zero selects a
// 1-second default.
func NewFanout(ln net.Listener, writeTimeout time.Duration) *Fanout {
	return &Fanout{f: transport.NewFanout(ln, writeTimeout)}
}

// Addr returns the address subscribers dial.
func (f *Fanout) Addr() net.Addr { return f.f.Addr() }

// ClientCount returns the number of connected subscribers.
func (f *Fanout) ClientCount() int { return f.f.ClientCount() }

// Evicted returns how many subscribers have been dropped since the
// fan-out started — for falling behind, erroring, or disconnecting
// mid-broadcast (the one-way medium cannot tell a stalled client from
// a departed one).
func (f *Fanout) Evicted() int { return f.f.Evicted() }

// Send transmits one slot frame (slot index + raw block payload) to
// every subscriber; Fanout is a Sink.
//
//pinlint:hotpath
func (f *Fanout) Send(s Slot) error { return f.f.Send(s.T, s.Payload) }

// Close stops accepting and disconnects every subscriber.
func (f *Fanout) Close() error { return f.f.Close() }

// Broadcast serves the station's slot stream into a sink until ctx is
// cancelled or the sink fails. Like Serve it is single-flight — a
// concurrent broadcast returns ErrServing.
func (st *Station) Broadcast(ctx context.Context, sink Sink) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		return err
	}
	err = pump(slots, sink)
	if err != nil {
		// The sink died mid-stream: stop the serve loop and drain it so
		// the station is immediately serviceable again.
		cancel()
		for range slots { //pinlint:allow cancelflow — cancel() above stops the serve loop, which closes slots; the drain is bounded
		}
	}
	return err
}
