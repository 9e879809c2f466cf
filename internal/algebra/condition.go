// Package algebra implements the pinwheel algebra of §4 of Baruah &
// Bestavros: broadcast-file conditions bc(i, m, d⃗), pinwheel-task
// conditions pc(i, a, b), the transformation rules TR1 and TR2, and a
// converter that searches for a minimum-density *nice* conjunct of
// pinwheel conditions implying a given broadcast-file condition.
//
// The package is built around a "forcing engine" (forcing.go): a sound,
// mechanical procedure that lower-bounds how many grants a conjunct of
// pinwheel conditions forces into every window of a given length. The
// paper applies its manipulation rules R0–R5 (Figure 8) by hand; here
// they are checkable consequences of the engine (rules_test.go certifies
// every instance), and every conversion the converter emits is certified
// by it.
package algebra

import (
	"fmt"
	"strings"

	"pinbcast/internal/bcerr"
)

// PC is a pinwheel-task condition pc(task, a, b): the broadcast program
// must contain at least A slots of the task in every B consecutive
// slots (Definition 4 of the paper).
type PC struct {
	Task string
	A, B int
}

// Density returns A/B.
func (p PC) Density() float64 { return float64(p.A) / float64(p.B) }

// String renders the condition as in the paper, e.g. "pc(i; 2, 5)".
func (p PC) String() string {
	if p.Task == "" {
		return fmt.Sprintf("pc(%d, %d)", p.A, p.B)
	}
	return fmt.Sprintf("pc(%s; %d, %d)", p.Task, p.A, p.B)
}

// Validate checks 1 ≤ A ≤ B.
func (p PC) Validate() error {
	switch {
	case p.A < 1:
		return fmt.Errorf("algebra: %s has A < 1: %w", p, bcerr.ErrBadSpec)
	case p.B < p.A:
		return fmt.Errorf("algebra: %s has B < A (unsatisfiable): %w", p, bcerr.ErrBadSpec)
	}
	return nil
}

// BC is a broadcast-file condition bc(task, m, d⃗) (Definition 3): the
// program must contain at least M+j blocks of the file in every D[j]
// consecutive slots, for each fault level j = 0..len(D)-1. D[j] is the
// worst-case latency tolerable in the presence of j faults, measured in
// block-transmission times.
type BC struct {
	Task string
	M    int
	D    []int
}

// R returns the highest tolerated fault count, len(D)−1.
func (b BC) R() int { return len(b.D) - 1 }

// String renders the condition as in the paper, e.g. "bc(i; 2, [5, 6, 6])".
func (b BC) String() string {
	ds := make([]string, len(b.D))
	for i, d := range b.D {
		ds[i] = fmt.Sprint(d)
	}
	v := "[" + strings.Join(ds, ", ") + "]"
	if b.Task == "" {
		return fmt.Sprintf("bc(%d, %s)", b.M, v)
	}
	return fmt.Sprintf("bc(%s; %d, %s)", b.Task, b.M, v)
}

// Validate checks that the condition is satisfiable in isolation:
// M ≥ 1, at least one latency, and every window large enough to hold
// the blocks it demands (D[j] ≥ M+j).
func (b BC) Validate() error {
	if b.M < 1 {
		return fmt.Errorf("algebra: %s has M < 1: %w", b, bcerr.ErrBadSpec)
	}
	if len(b.D) == 0 {
		return fmt.Errorf("algebra: %s has an empty latency vector: %w", b, bcerr.ErrBadSpec)
	}
	for j, d := range b.D {
		if d < b.M+j {
			return fmt.Errorf("algebra: %s demands %d blocks in a window of %d (level %d): %w",
				b, b.M+j, d, j, bcerr.ErrBadSpec)
		}
	}
	return nil
}

// conditions expands the broadcast-file condition into its equivalent
// conjunct of pinwheel conditions (Equation 3):
// bc(i, m, d⃗) ≡ ⋀ⱼ pc(i, m+j, d⁽ʲ⁾).
func (b BC) conditions() []PC {
	out := make([]PC, len(b.D))
	for j, d := range b.D {
		out[j] = PC{Task: b.Task, A: b.M + j, B: d}
	}
	return out
}

// DensityLowerBound returns max_j (m+j)/d⁽ʲ⁾, the paper's lower bound on
// the density of any nice conjunct implying the condition.
func (b BC) DensityLowerBound() float64 {
	lb := 0.0
	for j, d := range b.D {
		if v := float64(b.M+j) / float64(d); v > lb {
			lb = v
		}
	}
	return lb
}

// Mapped is a pinwheel condition on a scheduler task together with the
// broadcast file it maps to (the paper's map(i′, i) function: blocks of
// file MapsTo are broadcast whenever SchedTask is scheduled).
type Mapped struct {
	PC
	MapsTo string
}

// NiceConjunct is a conjunct of pinwheel conditions in nice form
// (Definition 1): each scheduler task carries exactly one condition.
type NiceConjunct []Mapped

// Density returns the total density of the conjunct — the quantity the
// Chan–Chin schedulability test consumes.
func (n NiceConjunct) Density() float64 {
	d := 0.0
	for _, m := range n {
		d += m.Density()
	}
	return d
}

// Validate checks niceness (distinct scheduler tasks) and each member.
func (n NiceConjunct) Validate() error {
	if len(n) == 0 {
		return fmt.Errorf("algebra: empty conjunct: %w", bcerr.ErrBadSpec)
	}
	seen := make(map[string]bool, len(n))
	for _, m := range n {
		if err := m.PC.Validate(); err != nil {
			return err
		}
		if seen[m.Task] {
			return fmt.Errorf("algebra: conjunct is not nice: task %q repeated", m.Task)
		}
		seen[m.Task] = true
	}
	return nil
}

// String renders the conjunct, e.g.
// "pc(i; 6, 105) ∧ pc(i1; 1, 110)·map(i1, i)".
func (n NiceConjunct) String() string {
	parts := make([]string, len(n))
	for i, m := range n {
		s := m.PC.String()
		if m.MapsTo != "" && m.MapsTo != m.Task {
			s += fmt.Sprintf("·map(%s, %s)", m.Task, m.MapsTo)
		}
		parts[i] = s
	}
	return strings.Join(parts, " ∧ ")
}

// ForFile returns the members whose grants count toward the given file:
// conditions on the file's own task plus all mapped helper tasks.
func (n NiceConjunct) ForFile(file string) []PC {
	var out []PC
	for _, m := range n {
		if m.MapsTo == file || (m.MapsTo == "" && m.Task == file) {
			out = append(out, m.PC)
		}
	}
	return out
}
