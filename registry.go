package pinbcast

import (
	"fmt"
	"maps"
	"slices"
)

// registry is the read-only name → implementation table behind the
// layout and shard-policy names. Each is filled once, when the
// package's variables initialise, and never written again, so reads
// need no lock and no test can leak an entry into another's names.
type registry[T any] struct {
	kind   string // what error messages call an entry
	byName map[string]T
}

// named returns the entry registered under name. An unknown name wraps
// ErrBadSpec and lists what is registered.
func (r registry[T]) named(name string) (T, error) {
	v, ok := r.byName[name]
	if !ok {
		return v, fmt.Errorf("pinbcast: unknown %s %q (registered: %v): %w", r.kind, name, r.names(), ErrBadSpec)
	}
	return v, nil
}

// names returns the registered names, sorted.
func (r registry[T]) names() []string { return slices.Sorted(maps.Keys(r.byName)) }
