package pinbcast

import (
	"fmt"
	"sort"
	"sync"
)

// registry is the name → implementation table behind the scheduler,
// layout and shard-policy registries.
type registry[T interface{ Name() string }] struct {
	kind   string // what error messages call an entry
	mu     sync.RWMutex
	byName map[string]T // guarded by mu
}

func newRegistry[T interface{ Name() string }](kind string) *registry[T] {
	return &registry[T]{kind: kind, byName: map[string]T{}}
}

// register adds v under its name; an empty or taken name wraps
// ErrBadSpec.
func (r *registry[T]) register(v T) error {
	name := v.Name()
	if name == "" {
		return fmt.Errorf("pinbcast: %s has no name: %w", r.kind, ErrBadSpec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("pinbcast: %s %q already registered: %w", r.kind, name, ErrBadSpec)
	}
	r.byName[name] = v
	return nil
}

func (r *registry[T]) lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byName[name]
	return v, ok
}

// named is lookup for the With…Name options: an unknown name wraps
// ErrBadSpec and lists what is registered.
func (r *registry[T]) named(name string) (T, error) {
	v, ok := r.lookup(name)
	if !ok {
		return v, fmt.Errorf("pinbcast: unknown %s %q (registered: %v): %w", r.kind, name, r.names(), ErrBadSpec)
	}
	return v, nil
}

// names returns the registered names, sorted.
func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
