package pinbcast

import (
	"fmt"
	"maps"
	"slices"
)

// registry is the read-only name → implementation table behind the
// scheduler, layout and shard-policy lookups. Each is filled once, when
// the package's variables initialise, and never written again, so reads
// need no lock and no test can leak an entry into another's names.
type registry[T interface{ Name() string }] struct {
	kind   string // what error messages call an entry
	byName map[string]T
}

func newRegistry[T interface{ Name() string }](kind string, entries ...T) registry[T] {
	r := registry[T]{kind: kind, byName: make(map[string]T, len(entries))}
	for _, v := range entries {
		r.byName[v.Name()] = v
	}
	return r
}

func (r registry[T]) lookup(name string) (T, bool) {
	v, ok := r.byName[name]
	return v, ok
}

// named is lookup for WithShardName: an unknown name wraps ErrBadSpec
// and lists what is registered.
func (r registry[T]) named(name string) (T, error) {
	v, ok := r.lookup(name)
	if !ok {
		return v, fmt.Errorf("pinbcast: unknown %s %q (registered: %v): %w", r.kind, name, r.names(), ErrBadSpec)
	}
	return v, nil
}

// names returns the registered names, sorted.
func (r registry[T]) names() []string { return slices.Sorted(maps.Keys(r.byName)) }
