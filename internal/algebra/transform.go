package algebra

import "fmt"

// Transformation rules TR1 and TR2 of §4.2: canned conversions from a
// broadcast-file condition to a nice conjunct of pinwheel conditions.
// Report prints their densities beside Convert's; Convert's ladder
// reaches TR1 as the primary alone at a₀ = 1.

// TR1 converts bc(i, m, d⃗) into the single unit condition
// pc(i, 1, min_j ⌊d⁽ʲ⁾/(m+j)⌋). Adequate for files with low density
// lower bounds (paper Examples 2 and 3).
func TR1(b BC) (NiceConjunct, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	w := b.D[0] / b.M
	for j, d := range b.D {
		if v := d / (b.M + j); v < w {
			w = v
		}
	}
	if w < 1 {
		return nil, fmt.Errorf("algebra: TR1 on %s yields window %d < 1", b, w)
	}
	return NiceConjunct{{PC: PC{Task: b.Task, A: 1, B: w}, MapsTo: b.Task}}, nil
}

// TR2 converts bc(i, m, d⃗) into
// pc(i, m, d⁽⁰⁾) ∧ pc(i₁, 1, d⁽¹⁾)·map(i₁,i) ∧ … ∧ pc(i_r, 1, d⁽ʳ⁾)·map(i_r,i):
// the primary condition supplies the base m blocks, and one unit helper
// per fault level supplies each extra block (repeated application of R4).
func TR2(b BC) (NiceConjunct, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	out := NiceConjunct{{PC: PC{Task: b.Task, A: b.M, B: b.D[0]}, MapsTo: b.Task}}
	for j := 1; j < len(b.D); j++ {
		out = append(out, Mapped{
			PC:     PC{Task: HelperName(b.Task, j), A: 1, B: b.D[j]},
			MapsTo: b.Task,
		})
	}
	return out, nil
}

// HelperName names the j-th helper scheduler task for a file, matching
// the paper's i₁, i₂, … subscripts.
func HelperName(task string, j int) string {
	return fmt.Sprintf("%s#%d", task, j)
}
