// Package rtdb models the real-time database layer that motivates the
// paper (§1): data items subject to absolute temporal consistency
// constraints, operation modes that change each item's criticality
// (§2.2's AIDA redundancy scaling), and density-based admission
// control for adding items to a broadcast disk.
//
// The canonical example is the paper's AWACS scenario: the position of
// an aircraft flying 900 km/h with a required positional accuracy of
// 100 m must be re-disseminated every 400 ms; a 60 km/h tank only needs
// 6 s.
package rtdb

import (
	"fmt"
	"math"
	"time"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
	"pinbcast/internal/pinwheel"
)

// Mode is a system operation mode (§2.2: e.g. "combat", "landing"),
// which determines how critical — and hence how redundantly broadcast —
// each item is.
type Mode string

// Item is a real-time database object disseminated on the broadcast
// disk.
type Item struct {
	Name string
	// Velocity is the rate of change of the quantity the item records,
	// in meters per second (for positional items).
	Velocity float64
	// Accuracy is the absolute temporal-consistency requirement
	// expressed as a positional error bound in meters.
	Accuracy float64
	// Blocks is the item's size in broadcast blocks (the IDA threshold m).
	Blocks int
	// FaultsByMode scales AIDA redundancy per mode; missing modes get
	// zero redundancy (non-critical).
	FaultsByMode map[Mode]int
}

// Validate checks the item.
func (it Item) Validate() error {
	switch {
	case it.Name == "":
		return fmt.Errorf("rtdb: item needs a name: %w", bcerr.ErrBadSpec)
	case it.Velocity <= 0:
		return fmt.Errorf("rtdb: item %q has nonpositive velocity: %w", it.Name, bcerr.ErrBadSpec)
	case it.Accuracy <= 0:
		return fmt.Errorf("rtdb: item %q has nonpositive accuracy: %w", it.Name, bcerr.ErrBadSpec)
	case it.Blocks < 1:
		return fmt.Errorf("rtdb: item %q has %d blocks: %w", it.Name, it.Blocks, bcerr.ErrBadSpec)
	}
	for m, r := range it.FaultsByMode {
		if r < 0 {
			return fmt.Errorf("rtdb: item %q has negative faults in mode %q: %w", it.Name, m, bcerr.ErrBadSpec)
		}
	}
	return nil
}

// TemporalConstraint returns the absolute temporal-consistency
// constraint: the maximum staleness that keeps the recorded value
// within Accuracy, i.e. Accuracy/Velocity. For the paper's AWACS
// aircraft (900 km/h, 100 m) this is 400 ms.
func (it Item) TemporalConstraint() time.Duration {
	seconds := it.Accuracy / it.Velocity
	return time.Duration(seconds * float64(time.Second))
}

// KmPerHour converts km/h to m/s.
func KmPerHour(v float64) float64 { return v * 1000.0 / 3600.0 }

// Database is a set of items with a time base for converting temporal
// constraints into broadcast latency units.
type Database struct {
	// Unit is the duration of one latency unit (the granularity at
	// which bandwidth is expressed, e.g. 100 ms).
	Unit  time.Duration
	Items []Item
}

// Validate checks the database.
func (db *Database) Validate() error {
	if db.Unit <= 0 {
		return fmt.Errorf("rtdb: database needs a positive time unit: %w", bcerr.ErrBadSpec)
	}
	if len(db.Items) == 0 {
		return fmt.Errorf("rtdb: no items: %w", bcerr.ErrBadSpec)
	}
	seen := map[string]bool{}
	for _, it := range db.Items {
		if err := it.Validate(); err != nil {
			return err
		}
		if seen[it.Name] {
			return fmt.Errorf("rtdb: duplicate item %q", it.Name)
		}
		seen[it.Name] = true
	}
	return nil
}

// LatencyUnits converts the item's temporal constraint to whole latency
// units (rounding down — the broadcast must be at least as fresh as the
// constraint). It returns an error when the constraint is finer than
// the unit.
func (db *Database) LatencyUnits(it Item) (int, error) {
	u := int(math.Floor(float64(it.TemporalConstraint()) / float64(db.Unit)))
	if u < 1 {
		return 0, fmt.Errorf("rtdb: item %q constraint %v finer than unit %v",
			it.Name, it.TemporalConstraint(), db.Unit)
	}
	return u, nil
}

// FileSpecs maps the database to broadcast file specifications for the
// given mode: each item becomes a file with its size, its temporal
// constraint as latency, and its mode-dependent fault tolerance
// (AIDA's bandwidth-allocation knob).
func (db *Database) FileSpecs(mode Mode) ([]core.FileSpec, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	files := make([]core.FileSpec, len(db.Items))
	for i, it := range db.Items {
		t, err := db.LatencyUnits(it)
		if err != nil {
			return nil, err
		}
		files[i] = core.FileSpec{
			Name:    it.Name,
			Blocks:  it.Blocks,
			Latency: t,
			Faults:  it.FaultsByMode[mode],
		}
	}
	return files, nil
}

// Admission control (§1's admission-control citation [11]): an item may
// join a broadcast disk of fixed bandwidth only if the resulting
// pinwheel system still passes the Chan–Chin density test, preserving
// every admitted item's guarantee.

// ErrRejected is returned when admitting an item would break the
// density guarantee. It wraps the shared admission sentinel so facade
// callers can classify rejections with errors.Is.
var ErrRejected = fmt.Errorf("rtdb: density bound exceeded: %w", bcerr.ErrAdmission)

// Admit checks whether candidate can join the already-admitted files at
// bandwidth b and returns the extended file set on success.
func Admit(admitted []core.FileSpec, candidate core.FileSpec, b int) ([]core.FileSpec, error) {
	if err := candidate.Validate(); err != nil {
		return nil, err
	}
	next := append(append([]core.FileSpec(nil), admitted...), candidate)
	sys := core.TaskSystem(next, b)
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("rtdb: candidate infeasible at bandwidth %d (%w): %w", b, err, bcerr.ErrAdmission)
	}
	if !pinwheel.DensityTestCC(sys) {
		return nil, fmt.Errorf("%w (density %.4f)", ErrRejected, sys.Density())
	}
	return next, nil
}
