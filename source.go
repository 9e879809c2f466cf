package pinbcast

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"pinbcast/internal/transport"
)

// Source is the receiving end of a broadcast transport: an ordered
// stream of slots a Receiver tunes into. The paper's channel is a
// one-way downstream medium, so a Source only delivers; it never
// carries anything back. Three implementations ship with the package —
// the Station's in-process stream (SlotSource), a framed TCP connection
// (DialSource), and a replayable recording (Recording.Source) — and one
// Receiver works unchanged against any of them.
type Source interface {
	// Next blocks for the next slot of the broadcast. Idle slots are
	// delivered (with a nil Payload) so receivers observe real slot
	// timing. The stream end is io.EOF.
	Next() (Slot, error)
	// Close releases the source; subsequent Next calls return io.EOF.
	Close() error
}

// Sink is the transmitting end of a broadcast transport: it accepts the
// slot stream a Station serves and carries it outward. Implementations
// shipped with the package: Fanout (framed TCP to N subscribers) and
// Recording (capture for later replay).
type Sink interface {
	// Send transmits one slot. A Sink must tolerate having no audience;
	// broadcast is fire-and-forget.
	Send(Slot) error
	// Close releases the sink.
	Close() error
}

// pump drains a served slot stream into a sink until the stream closes
// (Station.Serve closes it when its context is cancelled) or the sink
// fails. It is the loop inside Station.Broadcast, the glue between the
// Station and any transport.
//
//pinlint:hotpath
func pump(slots <-chan Slot, sink Sink) error {
	for slot := range slots { //pinlint:allow cancelflow — the slot stream is the cancellation signal: Serve closes it when its ctx is cancelled
		if err := sink.Send(slot); err != nil {
			return err
		}
	}
	return nil
}

// slotSource adapts a Station's served channel to the Source interface.
type slotSource struct {
	slots <-chan Slot
	once  sync.Once
	done  chan struct{}
}

// SlotSource returns the in-process transport: a Source that reads the
// channel returned by Station.Serve. Closing the source detaches the
// receiver without disturbing the station (the serve loop keeps
// streaming to other consumers of the channel, if any).
func SlotSource(slots <-chan Slot) Source {
	return &slotSource{slots: slots, done: make(chan struct{})}
}

func (s *slotSource) Next() (Slot, error) {
	select {
	case <-s.done:
		return Slot{}, io.EOF
	case slot, ok := <-s.slots:
		if !ok {
			return Slot{}, io.EOF
		}
		return slot, nil
	}
}

func (s *slotSource) Close() error {
	s.once.Do(func() { close(s.done) })
	return nil
}

// TCPSource consumes a framed broadcast stream from a Fanout over TCP.
// The wire carries the paper's model faithfully: slot index and raw
// self-identifying block only — no file names, no generation marks —
// so a receiver needs a directory (WithDirectory) to resolve names.
type TCPSource struct {
	r *transport.Receiver
	// Timeout bounds each Next call; zero blocks indefinitely.
	Timeout time.Duration
	// Reuse hands out each frame's Payload in the connection's one read
	// buffer, valid only until the following Next. A Receiver decodes
	// every slot before advancing, so subscription loops can enable it
	// to receive allocation-free. Left false, Next copies the payload
	// out of that buffer and the Slot may be retained (a Recording does).
	Reuse bool
}

// DialSource subscribes to the broadcast fan-out at addr.
func DialSource(addr string) (*TCPSource, error) {
	r, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("pinbcast: dialing broadcast source: %w", err)
	}
	return &TCPSource{r: r}, nil
}

// Next reads the next frame off the connection.
//
//pinlint:hotpath
func (s *TCPSource) Next() (Slot, error) {
	t, payload, err := s.r.Next(s.Timeout)
	if err != nil {
		return Slot{}, err
	}
	if !s.Reuse {
		payload = bytes.Clone(payload) //pinlint:allow hotpath — the retaining mode's per-frame copy (nil, an idle slot, stays nil); allocation-free loops set Reuse
	}
	return Slot{T: t, Payload: payload}, nil
}

// Close closes the connection.
func (s *TCPSource) Close() error { return s.r.Close() }

// Recording is a captured broadcast stream: a Sink that retains every
// slot it is sent, replayable any number of times as a Source. It
// makes receiver behaviour reproducible — record one serve pass, then
// drive the same Receiver code offline — and doubles as the in-memory
// transport for tests.
type Recording struct {
	mu    sync.Mutex
	slots []Slot
}

// Send retains one slot; Recording is a Sink.
func (rec *Recording) Send(s Slot) error {
	rec.mu.Lock()
	rec.slots = append(rec.slots, s)
	rec.mu.Unlock()
	return nil
}

// Close is a no-op; the recording stays usable for replay.
func (rec *Recording) Close() error { return nil }

// Source returns a replay of the recording from its first slot. Each
// call returns an independent replay cursor.
func (rec *Recording) Source() Source { return &replaySource{rec: rec} }

// replaySource is one replay cursor; pos and closed are read and
// written under rec.mu.
type replaySource struct {
	rec    *Recording
	pos    int
	closed bool
}

func (r *replaySource) Next() (Slot, error) {
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	if r.closed || r.pos >= len(r.rec.slots) {
		return Slot{}, io.EOF
	}
	slot := r.rec.slots[r.pos]
	r.pos++
	return slot, nil
}

// Close may run concurrently with Next: MultiTuner.Close closes the
// sources of a run in flight.
func (r *replaySource) Close() error {
	r.rec.mu.Lock()
	r.closed = true
	r.rec.mu.Unlock()
	return nil
}
