// Package transport broadcasts a disk program over real network
// connections. The broadcast channel of the paper is a one-way
// downstream medium; here it is realized as a TCP fan-out: the server
// pushes one framed slot after another to every connected client, and
// never reads — preserving the asymmetry (clients have no upstream
// path through this package at all).
//
// Frame format (big endian):
//
//	uint32 slot number
//	uint32 payload length (0 for an idle slot)
//	payload bytes (a marshaled ida.Block)
//
// Slow or dead clients are disconnected rather than allowed to stall
// the broadcast, matching the fire-and-forget nature of the medium.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pinbcast/internal/obs"
)

// Fan-out plane instruments, registered once against the process-wide
// registry; the hot paths below touch them with single atomic ops.
var (
	fanoutFrames      = obs.Default().Counter("pin_fanout_frames_total", "Slot frames accepted by Fanout.Send.")
	fanoutSubscribers = obs.Default().Gauge("pin_fanout_subscribers", "Currently connected fan-out subscribers.")
	fanoutEvictions   = obs.Default().Counter("pin_fanout_evictions_total", "Subscribers evicted for stalling, erroring, or going away.")
	fanoutBatchFrames = obs.Default().Histogram("pin_fanout_writev_batch_frames", "Frames gathered into each writev flush.")
	fanoutQueueDepth  = obs.Default().Gauge("pin_fanout_queue_depth", "Deepest subscriber queue observed by the last Send.")
	fanoutTrace       = obs.Trace()
)

// frameHeaderSize is the per-frame header: slot(4) + length(4).
const frameHeaderSize = 8

// MaxFramePayload bounds the payload length a receiver will accept,
// guarding against corrupt headers.
const MaxFramePayload = 1 << 20

// ErrClosed reports a Send on a closed fan-out.
var ErrClosed = errors.New("transport: fanout closed")

// IsTimeout reports whether err is a read-deadline expiry rather than a
// dead stream: a receiver driving a missed-slot detector counts a
// timeout as one slot of silence, while any other receive error (EOF,
// reset, corrupt frame) means the channel itself is gone.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// AppendFrame appends the wire form of one slot frame to dst and
// returns the extended slice, allocation-free into dst[:0] of a reused
// buffer. It is the tests' and cmd/bdload's frame encoder; the fan-out
// writer sends appendHeader's header and the payload in one writev.
//
//pinlint:hotpath
func AppendFrame(dst []byte, slot int, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("transport: payload %d exceeds limit", len(payload)) //pinlint:allow hotpath — oversized frame, cold error path
	}
	dst = appendHeader(dst, slot, len(payload))
	dst = append(dst, payload...)
	return dst, nil
}

// appendHeader appends one frame header — the only place the header
// layout is encoded.
//
//pinlint:hotpath
func appendHeader(dst []byte, slot, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(slot))
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// ReadFrame reads one slot frame from r, reusing buf's backing array
// for the payload when it has capacity (growing it otherwise; a nil buf
// yields a freshly allocated payload). The returned payload aliases buf
// — it is valid only until the caller's next reuse of the buffer. An
// idle slot yields a nil payload.
//
// The header is also read through buf when possible: a stack header
// array would escape through the io.Reader interface call and cost a
// heap allocation per frame.
//
//pinlint:hotpath
func ReadFrame(r io.Reader, buf []byte) (slot int, payload []byte, err error) {
	hdr, err := readN(r, buf, frameHeaderSize)
	if err != nil {
		return 0, nil, err
	}
	slot = int(binary.BigEndian.Uint32(hdr[0:]))
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("transport: frame payload %d exceeds limit", n) //pinlint:allow hotpath — corrupt header, cold error path
	}
	if n == 0 {
		return slot, nil, nil
	}
	// The header bytes are already decoded, so the payload may overwrite
	// them in the shared buffer.
	if payload, err = readN(r, buf, int(n)); err != nil {
		return 0, nil, err
	}
	return slot, payload, nil
}

// readN reads exactly n bytes from r into buf's backing array, or into
// a fresh slice when buf is too small.
//
//pinlint:hotpath
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n) //pinlint:allow hotpath — grow-once fallback for an undersized caller buffer; a reader that keeps the result reuses it on the next frame
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// Fanout multiplexes an externally supplied slot stream to every
// connected client. It is the push half of the transport seam: callers
// feed it frames with Send. Each subscriber has its own bounded frame
// queue drained by its own writer goroutine, so delivery to one client
// never waits on another; a subscriber whose queue stays full (or
// whose writes error or exceed the write timeout) is evicted rather
// than allowed to stall the broadcast.
type Fanout struct {
	ln      net.Listener
	timeout time.Duration

	mu      sync.Mutex
	subs    map[*subscriber]bool // guarded by mu
	evicted int                  // guarded by mu
	closed  bool                 // guarded by mu
	wg      sync.WaitGroup
}

// frame is one queued slot transmission.
type frame struct {
	slot    int
	payload []byte
}

// subscriber is one connected client: its connection, its bounded
// frame queue, and its shutdown latch.
type subscriber struct {
	conn net.Conn
	ch   chan frame
	done chan struct{}
	once sync.Once
}

// stop closes the subscriber exactly once; its writer exits via done.
func (s *subscriber) stop() {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
	})
}

// DefaultWriteTimeout is the slow-client eviction threshold used when a
// fan-out is constructed with a zero timeout.
const DefaultWriteTimeout = time.Second

// queueDepth is each subscriber's frame buffer: how far one client may
// fall behind the broadcast before the producer starts waiting on it
// (and, after the write timeout, evicts it).
const queueDepth = 256

// NewFanout starts accepting subscribers on ln. writeTimeout is the
// slow-client threshold (zero selects DefaultWriteTimeout).
func NewFanout(ln net.Listener, writeTimeout time.Duration) *Fanout {
	if writeTimeout <= 0 {
		writeTimeout = DefaultWriteTimeout
	}
	f := &Fanout{
		ln:      ln,
		timeout: writeTimeout,
		subs:    make(map[*subscriber]bool),
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f
}

// Addr returns the listening address.
func (f *Fanout) Addr() net.Addr { return f.ln.Addr() }

func (f *Fanout) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s := &subscriber{
			conn: conn,
			ch:   make(chan frame, queueDepth),
			done: make(chan struct{}),
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.subs[s] = true
		fanoutSubscribers.Set(int64(len(f.subs)))
		f.wg.Add(1)
		go f.writeLoop(s)
		f.mu.Unlock()
	}
}

// flushBatch is the most frames one writeLoop flush gathers into a
// single writev. Each frame contributes at most two iovec entries
// (header, payload), so a full flush stays well under the kernel's
// IOV_MAX and, at typical shard sizes, fills a socket buffer's worth of
// wire bytes per syscall.
const flushBatch = 128

// writeLoop drains one subscriber's queue onto its connection. A flush
// gathers every already-queued frame (up to flushBatch) into one
// net.Buffers writev: headers live in a reused arena, payloads are
// passed by reference, and a subscriber keeping pace with the broadcast
// costs one syscall per batch instead of one per frame. A lone frame
// with an empty queue behind it still flushes immediately — gathering
// never waits.
//
//pinlint:hotpath
func (f *Fanout) writeLoop(s *subscriber) {
	defer f.wg.Done()
	// The vec entries alias hdrs, so hdrs has fixed capacity and is
	// never appended past it: a reallocation mid-gather would strand
	// the earlier headers in the old backing array.
	hdrs := make([]byte, 0, flushBatch*frameHeaderSize) //pinlint:allow hotpath — one header arena per subscriber connection
	vec := make(net.Buffers, 0, 2*flushBatch)           //pinlint:allow hotpath — one gather vector per subscriber connection
	wv := new(net.Buffers)                              //pinlint:allow hotpath — one scratch slice header per subscriber connection
	for {
		select {
		case <-s.done:
			return
		case fr := <-s.ch:
			hdrs = hdrs[:0]
			vec = vec[:0]
			for {
				if len(fr.payload) > MaxFramePayload {
					f.drop(s) //pinlint:allow hotpath — eviction, at most once per subscriber
					return
				}
				off := len(hdrs)
				hdrs = appendHeader(hdrs, fr.slot, len(fr.payload))
				vec = append(vec, hdrs[off:])
				if len(fr.payload) > 0 {
					vec = append(vec, fr.payload)
				}
				if len(hdrs) == cap(hdrs) {
					break // arena full: flush this batch
				}
				select {
				case fr = <-s.ch:
					continue
				default:
				}
				break // queue drained: flush what we have
			}
			s.conn.SetWriteDeadline(time.Now().Add(f.timeout))
			// WriteTo consumes the slice it is called on (and trashes
			// partially written entries), so it gets a scratch copy of
			// the header; vec itself is rebuilt next flush either way.
			batch := len(hdrs) / frameHeaderSize
			*wv = vec
			if _, err := wv.WriteTo(s.conn); err != nil {
				f.drop(s) //pinlint:allow hotpath — eviction, at most once per subscriber
				return
			}
			fanoutBatchFrames.Observe(uint64(batch))
			fanoutTrace.Emit(obs.FrameFlushed, -1, 0, 0, uint64(fr.slot), uint64(batch))
		}
	}
}

// drop evicts a subscriber (idempotent).
func (f *Fanout) drop(s *subscriber) {
	f.mu.Lock()
	if f.subs[s] {
		delete(f.subs, s)
		f.evicted++
		fanoutEvictions.Inc()
		fanoutSubscribers.Set(int64(len(f.subs)))
	}
	f.mu.Unlock()
	s.stop()
}

// ClientCount returns the number of connected clients.
func (f *Fanout) ClientCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Evicted returns how many clients have been dropped — for falling
// behind, erroring, or going away — since the fan-out started.
func (f *Fanout) Evicted() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evicted
}

// laggardPool recycles the slice Send gathers full-queue subscribers
// into: a receiver that paces the broadcast (bounded backpressure) hits
// this path on every frame, and it must not allocate there.
var laggardPool = sync.Pool{New: func() any { s := []*subscriber(nil); return &s }}

// Send queues one slot frame for every connected client. A client
// whose queue has headroom costs one non-blocking enqueue; a client
// whose queue is full makes the producer wait up to the write timeout
// for space before evicting it — bounded backpressure for a client
// that is merely behind, eviction for one that has stalled. Other
// clients' deliveries proceed independently throughout. Sending to
// zero clients succeeds (the broadcast medium does not care who
// listens); the only error is ErrClosed.
//
// Send is the per-frame fan-out path.
//
//pinlint:hotpath
func (f *Fanout) Send(slot int, payload []byte) error {
	fr := frame{slot: slot, payload: payload}
	fp := laggardPool.Get().(*[]*subscriber)
	full := (*fp)[:0]
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		laggardPool.Put(fp)
		return ErrClosed
	}
	depth := 0
	for s := range f.subs {
		if d := len(s.ch); d > depth {
			depth = d
		}
		select {
		case s.ch <- fr:
		default:
			full = append(full, s) //pinlint:allow hotpath — pooled laggard slice, grows once then is reused
		}
	}
	f.mu.Unlock()
	fanoutFrames.Inc()
	fanoutQueueDepth.Set(int64(depth))
	if len(full) == 0 {
		*fp = full
		laggardPool.Put(fp)
		return nil
	}
	// One write-timeout budget covers all laggards: each gets until the
	// timer fires to free queue space; after that, space-or-eviction.
	timer := time.NewTimer(f.timeout)
	defer timer.Stop()
	expired := false
	for _, s := range full {
		if expired {
			select {
			case s.ch <- fr:
			case <-s.done: // writer already dropped it
			default:
				f.drop(s) //pinlint:allow hotpath — eviction, at most once per subscriber
			}
			continue
		}
		select {
		case s.ch <- fr:
		case <-s.done:
		case <-timer.C:
			expired = true
			f.drop(s) //pinlint:allow hotpath — eviction, at most once per subscriber
		}
	}
	clear(full)
	*fp = full[:0]
	laggardPool.Put(fp)
	return nil
}

// Close stops accepting, disconnects every client and waits for the
// accept and writer loops.
func (f *Fanout) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for s := range f.subs {
		s.stop()
		delete(f.subs, s)
	}
	fanoutSubscribers.Set(int64(len(f.subs)))
	f.mu.Unlock()
	err := f.ln.Close()
	f.wg.Wait()
	return err
}

// receiveBufferSize is the Receiver's read-ahead buffer: large enough
// to swallow a full writev batch from the fan-out in one read syscall.
const receiveBufferSize = 128 << 10

// Receiver consumes a broadcast stream from a connection. Reads go
// through a read-ahead buffer sized to the fan-out's writev batches, so
// a receiver keeping pace pays one read syscall per batch of frames,
// not two per frame (header, payload).
type Receiver struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte // Next's frame buffer
}

// Dial connects to a fan-out.
func Dial(addr string) (*Receiver, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Seed the frame buffer so even the first frames (and idle frames
	// before any payload sizes it) read their header without allocating.
	return &Receiver{
		conn: conn,
		br:   bufio.NewReaderSize(conn, receiveBufferSize),
		buf:  make([]byte, 0, 512),
	}, nil
}

// Next returns the next slot frame. It blocks until a frame arrives,
// the deadline passes, or the stream closes (io.EOF). The payload is
// read into the receiver's internal buffer: it is valid only until the
// following Next call, so a caller that retains it must copy it out.
// Receive loops that decode each frame before fetching the next are
// allocation-free.
//
//pinlint:hotpath
func (r *Receiver) Next(deadline time.Duration) (slot int, payload []byte, err error) {
	if deadline > 0 {
		r.conn.SetReadDeadline(time.Now().Add(deadline))
	}
	slot, payload, err = ReadFrame(r.br, r.buf)
	if cap(payload) > cap(r.buf) {
		r.buf = payload[:cap(payload)]
	}
	return slot, payload, err
}

// Close closes the connection.
func (r *Receiver) Close() error { return r.conn.Close() }
