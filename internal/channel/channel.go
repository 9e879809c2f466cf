// Package channel models the broadcast medium: one block per slot,
// delivered to every listening client, with pluggable fault injection.
// The paper's error model (§3.2) is that transmission errors occur
// independently and an error renders the whole block unreadable; the
// Gilbert–Elliott model adds the bursty losses typical of the wireless
// links that motivated broadcast disks.
package channel

import (
	"fmt"
	"math/rand"
)

// FaultModel decides whether the block in a given slot is corrupted in
// transit. Implementations are deterministic functions of their own
// state and the slot number, so simulations are reproducible.
type FaultModel interface {
	// Corrupts reports whether the transmission in slot t is destroyed.
	Corrupts(t int) bool
	// Name identifies the model in reports.
	Name() string
}

// None is the fault-free channel.
type None struct{}

// Corrupts always reports false.
func (None) Corrupts(int) bool { return false }

// Name returns "none".
func (None) Name() string { return "none" }

// Bernoulli corrupts each slot independently with probability P —
// the paper's independent-error model.
type Bernoulli struct {
	P   float64
	rng *rand.Rand
}

// NewBernoulli returns an iid loss model with the given probability and
// seed.
func NewBernoulli(p float64, seed int64) *Bernoulli {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("channel: probability %v out of range", p))
	}
	return &Bernoulli{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Corrupts flips the model's coin for this slot.
func (b *Bernoulli) Corrupts(int) bool { return b.rng.Float64() < b.P }

// Name returns e.g. "bernoulli(0.05)".
func (b *Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%g)", b.P) }

// GilbertElliott is the classic two-state burst-loss model: the channel
// alternates between a Good state (no loss) and a Bad state (loss with
// probability PLossBad), with geometric sojourn times.
type GilbertElliott struct {
	PGoodToBad float64 // transition probability Good → Bad per slot
	PBadToGood float64 // transition probability Bad → Good per slot
	PLossBad   float64 // loss probability while Bad
	bad        bool
	rng        *rand.Rand
}

// NewGilbertElliott returns a burst-loss model starting in the Good
// state.
func NewGilbertElliott(pGB, pBG, pLoss float64, seed int64) *GilbertElliott {
	for _, p := range []float64{pGB, pBG, pLoss} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("channel: probability %v out of range", p))
		}
	}
	return &GilbertElliott{
		PGoodToBad: pGB,
		PBadToGood: pBG,
		PLossBad:   pLoss,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Corrupts advances the channel state machine one slot and reports loss.
func (g *GilbertElliott) Corrupts(int) bool {
	if g.bad {
		if g.rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if g.rng.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	return g.bad && g.rng.Float64() < g.PLossBad
}

// Name returns e.g. "gilbert-elliott(0.01,0.2,0.9)".
func (g *GilbertElliott) Name() string {
	return fmt.Sprintf("gilbert-elliott(%g,%g,%g)", g.PGoodToBad, g.PBadToGood, g.PLossBad)
}

// SlotSet corrupts exactly the listed slots — the deterministic
// adversary used by worst-case tests.
type SlotSet map[int]bool

// Corrupts reports membership.
func (s SlotSet) Corrupts(t int) bool { return s[t] }

// Name returns "slotset".
func (s SlotSet) Name() string { return fmt.Sprintf("slotset(%d slots)", len(s)) }

// EveryNth corrupts slots t with t ≡ Offset (mod N) — a periodic
// interferer.
type EveryNth struct {
	N      int
	Offset int
}

// Corrupts reports whether the slot matches the interference phase.
func (e EveryNth) Corrupts(t int) bool {
	if e.N <= 0 {
		return false
	}
	return t%e.N == e.Offset%e.N
}

// Name returns e.g. "every(7,+3)".
func (e EveryNth) Name() string { return fmt.Sprintf("every(%d,+%d)", e.N, e.Offset) }
