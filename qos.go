package pinbcast

import (
	"fmt"
	"sort"

	"pinbcast/internal/rtdb"
)

// Online QoS negotiation (§1's contract-before-service discipline, made
// live): a client asks the running Station for a guarantee — a
// transaction deadline (AdmitTxn) or a new broadcast file (Negotiate) —
// and receives a typed Contract only if the Station can honor it
// without endangering any guarantee already issued. Rejections wrap
// ErrAdmission and leave the broadcast schedule and every previously
// issued contract untouched; accepted file changes land on data-cycle
// boundaries exactly like Admit and Evict.

// Contract is a QoS guarantee issued by a Station: a bound on the
// worst-case retrieval latency and on the staleness of retrieved data,
// effective from a program generation onward. Once issued, a contract
// is invariant — every later Admit, Evict or Negotiate is verified
// against it and rejected if it would stretch the promised bounds.
type Contract struct {
	// Name identifies the guaranteed party: the transaction name for
	// AdmitTxn contracts, the file name for Negotiate contracts.
	Name string
	// WorstLatencySlots bounds the retrieval latency from any start slot
	// despite each read's rᵢ faults: the window bound max B·Tᵢ over the
	// reads, which the pinwheel construction certifies on every program
	// the station builds.
	WorstLatencySlots int
	// StalenessSlots bounds the age of retrieved data, assuming the
	// server refreshes each item at its latency cadence (the item's
	// temporal-consistency constraint, the paper's model):
	// WorstLatencySlots plus the slowest read item's refresh interval.
	StalenessSlots int
	// EffectiveAt is the program generation whose program the bound was
	// computed against and from which the contract is honored: the
	// latest generation at issuance (the staged one when a swap is
	// pending — it goes on air at the next data-cycle boundary), which
	// Negotiate itself stages. The contract is live on air once
	// Slot.Generation ≥ EffectiveAt: ids only grow, and a staged
	// generation may be replaced by a later one before it airs.
	EffectiveAt int
}

// qosEntry pairs an issued contract with the transaction obligation the
// station re-verifies on every program change.
type qosEntry struct {
	txn Txn
	c   Contract
}

// AdmitTxn negotiates a read-only transaction guarantee against the
// current broadcast: the transaction is admitted only if every read
// file's worst-case retrieval, its pinwheel window bound B·Tᵢ, fits its
// deadline. On success the returned Contract is recorded and every
// future Admit, Evict and Negotiate is held to it. Rejections wrap
// ErrAdmission (deadline unmeetable) or ErrBadSpec (malformed
// transaction, unknown read item, duplicate contract name) and change
// nothing: the schedule keeps broadcasting and prior contracts stand.
func (st *Station) AdmitTxn(x Txn) (Contract, error) {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	if err := x.Validate(); err != nil {
		return Contract{}, err
	}
	if _, dup := st.contractEntry(x.Name); dup {
		return Contract{}, fmt.Errorf("pinbcast: contract %q already issued: %w", x.Name, ErrBadSpec)
	}
	base := st.latest.Load()
	worst, err := st.contractBound(base.files, x)
	if err != nil {
		return Contract{}, err
	}
	if worst > x.Deadline {
		return Contract{}, fmt.Errorf(
			"pinbcast: transaction %q worst-case retrieval is %d slots, deadline %d: %w",
			x.Name, worst, x.Deadline, ErrAdmission)
	}
	c := Contract{
		Name:              x.Name,
		WorstLatencySlots: worst,
		StalenessSlots:    rtdb.MaxStaleness(worst, worst),
		EffectiveAt:       base.id,
	}
	st.storeContract(qosEntry{txn: x, c: c})
	return c, nil
}

// Negotiate admits a new broadcast file with a service contract: the
// candidate passes density-based admission control at the station's
// bandwidth (a channel-capacity gate that applies whatever layout
// builds the program — the channel still carries one block per slot),
// the rebuilt program is verified against every issued contract, and
// only then is the change staged for the next data-cycle boundary
// (§2.3) — exactly Admit's landing rule. The returned Contract
// bounds the new file's own retrieval and staleness and is recorded
// like an AdmitTxn contract, so later changes preserve it too (evicting
// the file requires releasing its contract first). Rejections wrap
// ErrAdmission and leave the schedule, the file set and all prior
// contracts unchanged. As with Admit, contents belongs to the station
// from here on and must not be mutated.
func (st *Station) Negotiate(f FileSpec, contents []byte) (c Contract, err error) {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	if _, dup := st.contractEntry(f.Name); dup {
		return Contract{}, fmt.Errorf("pinbcast: contract %q already issued: %w", f.Name, ErrBadSpec)
	}
	// The new file's own guarantee, as a single-read transaction over the
	// staged program.
	read := Txn{Name: f.Name, Reads: []string{f.Name}, Deadline: 1 << 30}
	err = st.rebuild(change{add: []FileSpec{f}, contents: map[string][]byte{f.Name: contents}, accept: func(gen *generation) error {
		worst, err := st.contractBound(gen.files, read)
		c = Contract{
			Name:              f.Name,
			WorstLatencySlots: worst,
			StalenessSlots:    rtdb.MaxStaleness(worst, worst),
			EffectiveAt:       gen.id,
		}
		return err
	}})
	if err != nil {
		return Contract{}, err
	}
	read.Deadline = c.WorstLatencySlots
	st.storeContract(qosEntry{txn: read, c: c})
	return c, nil
}

// ReleaseTxn withdraws an issued contract, freeing later Admit, Evict
// and Negotiate calls from its obligation. Releasing an unknown
// contract wraps ErrBadSpec.
func (st *Station) ReleaseTxn(name string) error {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	if _, ok := st.contractEntry(name); !ok {
		return fmt.Errorf("pinbcast: no contract %q: %w", name, ErrBadSpec)
	}
	st.mu.Lock()
	delete(st.qos, name)
	st.mu.Unlock()
	stContracts.Add(-1)
	return nil
}

// Contracts returns every contract currently in force, sorted by name.
func (st *Station) Contracts() []Contract {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Contract, 0, len(st.qos))
	for _, e := range st.qos {
		out = append(out, e.c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// contractBound returns the worst-case retrieval bound a station
// contracts for the transaction over files: the window bound max B·Tᵢ
// over the reads. Every program the station builds is certified to hold
// each file's window at the station's bandwidth (Solve's Verify), so
// the bound holds on it from every start slot despite each read's rᵢ
// faults, and it survives every rebuild of these specs. It is also the
// refresh interval of the staleness bound. AdmitTxn and Negotiate issue
// it, verifyContracts holds later file sets to it, and
// Station.fileBound ranks a cluster file's homes by it.
func (st *Station) contractBound(files []FileSpec, x Txn) (int, error) {
	_, worst, err := rtdb.GuaranteeTxn(files, st.bandwidth, x)
	return worst, err
}

// verifyContracts checks every issued contract against a candidate
// file set, rejecting the change when any promised bound would stretch.
// Caller must hold buildMu.
func (st *Station) verifyContracts(files []FileSpec) error {
	st.mu.Lock()
	entries := make([]qosEntry, 0, len(st.qos))
	for _, e := range st.qos {
		entries = append(entries, e)
	}
	st.mu.Unlock()
	for _, e := range entries {
		worst, err := st.contractBound(files, e.txn)
		if err != nil {
			return fmt.Errorf("pinbcast: change would void contract %q (%w): %w",
				e.c.Name, err, ErrAdmission)
		}
		if worst > e.c.WorstLatencySlots {
			return fmt.Errorf(
				"pinbcast: change would stretch contract %q to %d slots (promised %d): %w",
				e.c.Name, worst, e.c.WorstLatencySlots, ErrAdmission)
		}
	}
	return nil
}

// contractEntry looks up an issued contract by name. Caller must hold
// buildMu.
func (st *Station) contractEntry(name string) (qosEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.qos[name]
	return e, ok
}

// storeContract records an issued contract. Caller must hold buildMu.
func (st *Station) storeContract(e qosEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.qos[e.c.Name] = e
	stContracts.Add(1)
}
