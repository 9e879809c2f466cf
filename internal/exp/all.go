package exp

// All runs every experiment with default parameters, in ID order (E1,
// E2, …). It is the experiment index, and what cmd/experiments
// prints. IDs are stable, not contiguous: E11 and E13 simulated related
// work nothing else ran and are gone; E12 and E14 keep their numbers.
func All() ([]*Table, error) {
	var tables []*Table
	run := func(t *Table, err error) error {
		if err != nil {
			return err
		}
		tables = append(tables, t)
		return nil
	}
	if err := run(Figure5()); err != nil {
		return nil, err
	}
	if err := run(Figure6()); err != nil {
		return nil, err
	}
	if err := run(Figure7()); err != nil {
		return nil, err
	}
	if err := run(LemmaBounds(6, 1)); err != nil {
		return nil, err
	}
	if err := run(Equation1([]int{5, 10, 20, 40, 80}, 2)); err != nil {
		return nil, err
	}
	if err := run(Equation2(8, 3)); err != nil {
		return nil, err
	}
	if err := run(PerFileFaults(4)); err != nil {
		return nil, err
	}
	if err := run(Example1()); err != nil {
		return nil, err
	}
	if err := run(Examples2to6()); err != nil {
		return nil, err
	}
	if err := run(DensitySweep([]float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}, 40, 5)); err != nil {
		return nil, err
	}
	if err := run(BlockSizeTradeoff(16384, []int{2, 4, 8, 16, 32, 64})); err != nil {
		return nil, err
	}
	if err := run(MultidiskVsPinwheel()); err != nil {
		return nil, err
	}
	if err := run(SchedulerDeltaAblation()); err != nil {
		return nil, err
	}
	return tables, nil
}
