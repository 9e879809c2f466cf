package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultMissThreshold is how many consecutive missed slots (gaps in
// the observed slot numbering, read timeouts, or a mix) a channel may
// accumulate before the detector declares it dead.
const DefaultMissThreshold = 4

// Detector is the receiver-side channel health tracker: a missed-slot
// detector on the fan-out seam. The broadcast medium emits one frame
// per slot — idle slots included — so a healthy channel presents a
// contiguous slot numbering to every subscriber. The detector counts
// consecutive evidence of silence per channel: a gap in observed slot
// numbers (frames the fan-out dropped for this laggard), a read
// timeout (no frame within the subscriber's deadline), or a stream
// error/EOF (the channel's transport died). Threshold consecutive
// misses — or one hard failure — mark the channel dead, and a dead
// channel stays dead: the paper's fault model has no in-place repair,
// matching Goemans–Lynch–Saias' no-repair regime.
//
// A Detector is safe for concurrent use, and channels are tracked
// independently — one goroutine per channel is the intended drive
// pattern, and observations on different channels never contend.
type Detector struct {
	threshold int
	chans     []detChannel
}

// detChannel is one channel's health state: mutated under its own lock
// so per-slot observations on different channels never serialize; the
// dead flag is additionally atomic so Alive is a lock-free read from
// any goroutine.
type detChannel struct {
	mu       sync.Mutex
	misses   int
	lastSlot int
	dead     atomic.Bool
}

// NewDetector tracks `channels` channels, declaring one dead after
// `threshold` consecutive missed slots (0 selects
// DefaultMissThreshold).
func NewDetector(channels, threshold int) *Detector {
	if channels < 1 {
		panic(fmt.Sprintf("cluster: detector needs at least one channel, got %d", channels))
	}
	if threshold <= 0 {
		threshold = DefaultMissThreshold
	}
	d := &Detector{threshold: threshold, chans: make([]detChannel, channels)}
	for i := range d.chans {
		d.chans[i].lastSlot = -1
	}
	return d
}

// Observe records a delivered slot with number t on the channel. A
// contiguous delivery clears the channel's miss run; a numbering gap
// counts the skipped slots as misses. It returns true when this
// observation just crossed the death threshold.
func (d *Detector) Observe(ch, t int) bool {
	c := &d.chans[ch]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead.Load() {
		return false
	}
	last := c.lastSlot
	c.lastSlot = t
	if last >= 0 && t > last+1 {
		c.misses += t - last - 1
		return d.checkLocked(c)
	}
	c.misses = 0
	return false
}

// Miss records one slot of silence (a read timeout on the subscriber's
// deadline). It returns true when the channel just died.
func (d *Detector) Miss(ch int) bool {
	c := &d.chans[ch]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead.Load() {
		return false
	}
	c.misses++
	return d.checkLocked(c)
}

// Fail marks the channel dead immediately (stream error or EOF — the
// transport itself is gone). It returns true when the channel was
// alive until now.
func (d *Detector) Fail(ch int) bool {
	c := &d.chans[ch]
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.dead.Swap(true)
}

// checkLocked applies the threshold. Caller holds the channel's lock.
func (d *Detector) checkLocked(c *detChannel) bool {
	if c.misses >= d.threshold {
		c.dead.Store(true)
		return true
	}
	return false
}

// Alive reports whether the channel is still considered live. It is a
// lock-free read, safe on any goroutine's per-slot path.
func (d *Detector) Alive(ch int) bool { return !d.chans[ch].dead.Load() }

// Dead returns the dead channels in index order.
func (d *Detector) Dead() []int {
	var out []int
	for ch := range d.chans {
		if d.chans[ch].dead.Load() {
			out = append(out, ch)
		}
	}
	return out
}
