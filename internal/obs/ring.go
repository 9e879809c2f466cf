package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
)

// Kind classifies a slot trace event.
type Kind uint8

// Trace event kinds, one per observable slot-plane transition.
const (
	KindUnknown Kind = iota
	// SlotServed: the station emitted one slot (File/Block valid).
	SlotServed
	// FrameFlushed: the fanout flushed a writev batch (Aux = frames).
	FrameFlushed
	// BlockCorrupted: a receiver saw an injected or real corruption.
	BlockCorrupted
	// MissDetected: the tuner's detector flagged a missed slot.
	MissDetected
	// ChannelHop: a tuner re-homed requests off a dead channel.
	ChannelHop
	// FailoverReadmit: the cluster re-admitted an orphaned file.
	FailoverReadmit
	// ContractRevoked: failover degraded a QoS contract past its bound.
	ContractRevoked
)

// String returns the stable wire name of the kind, used in the JSONL
// trace dump and the README schema table.
func (k Kind) String() string {
	switch k {
	case SlotServed:
		return "slot_served"
	case FrameFlushed:
		return "frame_flushed"
	case BlockCorrupted:
		return "block_corrupted"
	case MissDetected:
		return "miss_detected"
	case ChannelHop:
		return "channel_hop"
	case FailoverReadmit:
		return "failover_readmit"
	case ContractRevoked:
		return "contract_revoked"
	}
	return "unknown"
}

// MarshalText makes the wire name the kind's JSON form.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one decoded slot trace record; the tags are its JSONL schema.
type Event struct {
	Seq     uint64 `json:"seq"`     // global emission order (1-based, gaps = overwritten)
	Kind    Kind   `json:"kind"`    // encoded as its wire name ("slot_served", "channel_hop", …)
	Channel int    `json:"channel"` // channel index, or -1 when not channel-scoped
	File    uint32 `json:"file"`    // file ID, 0 when not file-scoped
	Block   uint8  `json:"block"`   // the served block's number (Seq of its code), 0 for other kinds
	T       uint64 `json:"t"`       // slot index on the emitting plane's clock
	Aux     uint64 `json:"aux"`     // kind-specific payload (generation id, writev batch size, failed channel, …)
}

// noChannel is the packed sentinel for "not channel-scoped".
const noChannel = 0xFFFF

// ringWords is the number of atomic words per slot:
// [0] seq (0 = being written), [1] block|kind|channel|file, [2] T,
// [3] aux.
const ringWords = 4

// DefaultRingSize is the capacity of the package-level Trace ring:
// large enough to hold several data cycles of slot events, small
// enough (1 MiB of words) to sit warm in L2 during replay.
const DefaultRingSize = 1 << 14

// Ring is a lock-free, fixed-capacity, overwrite-oldest trace buffer.
// Writers claim a slot with one atomic add and publish it with an
// atomic sequence store, so Emit never blocks and never allocates;
// concurrent readers (Snapshot) validate each slot's sequence
// word before and after decoding it and skip slots caught mid-write.
// Every slot access is an atomic word operation — the ring is clean
// under the race detector without locks.
type Ring struct {
	mask uint64
	head atomic.Uint64 // next sequence to claim (published seq = claim+1)
	_    [48]byte
	w    []atomic.Uint64 // cap*ringWords words
}

// NewRing returns a ring holding the most recent capacity events.
// Capacity is rounded up to a power of two.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{
		mask: uint64(n - 1),
		w:    make([]atomic.Uint64, n*ringWords),
	}
}

// trace is the package-level ring the planes emit into.
var trace = NewRing(DefaultRingSize)

// Trace returns the process-wide trace ring.
func Trace() *Ring { return trace }

// Emit publishes one event. Channel −1 (or any negative) records the
// not-channel-scoped sentinel; channels are truncated to 16 bits,
// which bounds K at 65535 — far beyond any broadcast plan. A block
// number fits its 8 bits because no code is wider than 256 blocks.
//
//pinlint:hotpath
func (r *Ring) Emit(kind Kind, channel int, file uint32, block uint8, t, aux uint64) {
	ch := uint64(noChannel)
	if channel >= 0 {
		ch = uint64(channel) & noChannel
	}
	n := r.head.Add(1) - 1
	base := (n & r.mask) * ringWords
	// Invalidate, fill, publish: a reader that loads seq==n+1 both
	// before and after the field loads saw a fully written record.
	r.w[base].Store(0)
	r.w[base+1].Store(uint64(block)<<56 | uint64(kind)<<48 | ch<<32 | uint64(file))
	r.w[base+2].Store(t)
	r.w[base+3].Store(aux)
	r.w[base].Store(n + 1)
}

// load decodes the slot holding sequence n, if it is still intact.
func (r *Ring) load(n uint64) (Event, bool) {
	base := (n & r.mask) * ringWords
	if r.w[base].Load() != n+1 {
		return Event{}, false
	}
	packed := r.w[base+1].Load()
	t := r.w[base+2].Load()
	aux := r.w[base+3].Load()
	if r.w[base].Load() != n+1 {
		return Event{}, false
	}
	ch := int(packed >> 32 & noChannel)
	if ch == noChannel {
		ch = -1
	}
	return Event{
		Seq:     n + 1,
		Kind:    Kind(packed >> 48),
		Channel: ch,
		File:    uint32(packed),
		Block:   uint8(packed >> 56),
		T:       t,
		Aux:     aux,
	}, true
}

// Snapshot appends the currently readable events, oldest first, to dst
// and returns the extended slice. It does not consume events and may
// run concurrently with writers; events overwritten or mid-write
// during the scan are skipped.
func (r *Ring) Snapshot(dst []Event) []Event {
	head := r.head.Load()
	start := uint64(0)
	if head > r.mask+1 {
		start = head - (r.mask + 1)
	}
	for n := start; n < head; n++ {
		if ev, ok := r.load(n); ok {
			dst = append(dst, ev)
		}
	}
	return dst
}

// WriteJSONL writes a Snapshot of the ring as JSON Lines, one event
// per line in emission order — the format behind /debug/trace. The
// ring overwrites its oldest entries, so a long-running process yields
// the trailing window, not the full history; Seq gaps mark the
// overwritten span.
func (r *Ring) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Snapshot(nil) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
