package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestFigure5Values(t *testing.T) {
	tbl, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Spread layout: period 8, δ_A = 2, δ_B = 3 as in the paper.
	spread := tbl.Rows[1]
	if spread[1] != "8" || spread[3] != "2" || spread[4] != "3" {
		t.Fatalf("spread row = %v", spread)
	}
}

func TestFigure6Values(t *testing.T) {
	tbl, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range tbl.Rows {
		got[r[0]] = r[1]
	}
	if got["broadcast period"] != "8" {
		t.Fatalf("period = %s", got["broadcast period"])
	}
	if got["program data cycle"] != "16" {
		t.Fatalf("data cycle = %s", got["program data cycle"])
	}
	if !strings.Contains(got["data cycle contents"], "A10'") {
		t.Fatalf("cycle missing rotated block: %s", got["data cycle contents"])
	}
}

func TestFigure7Values(t *testing.T) {
	tbl, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The without-IDA column reproduces the paper exactly: 0,8,16,24,…
	wantFlat := []string{"0", "8", "16", "24", "32", "40"}
	for i, row := range tbl.Rows {
		if row[3] != wantFlat[i] {
			t.Fatalf("row %d without-IDA = %s, want %s", i, row[3], wantFlat[i])
		}
	}
	// The with-IDA column is bounded by r·δ with δ = 3 for r ≤ 3.
	wantIDA := []string{"0", "3", "6", "8"}
	for i := 0; i < 4; i++ {
		if tbl.Rows[i][1] != wantIDA[i] {
			t.Fatalf("row %d with-IDA = %s, want %s", i, tbl.Rows[i][1], wantIDA[i])
		}
	}
}

func TestLemmaBounds(t *testing.T) {
	tbl, err := LemmaBounds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestEquation1OverheadCeiling(t *testing.T) {
	tbl, err := Equation1([]int{5, 15, 30}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		// The 43% claim concerns the 10/7 factor itself; the integral
		// bandwidth additionally pays a ceiling, pronounced for tiny
		// workloads. Check Eq 1 exactly: B = ⌈10/7 · necessary⌉.
		var necessary, eq1 float64
		if _, err := sscan(row[1], &necessary); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[2], &eq1); err != nil {
			t.Fatal(err)
		}
		if want := math.Ceil(10.0 / 7.0 * necessary); eq1 != want {
			t.Fatalf("Eq-1 bandwidth %v, want %v", eq1, want)
		}
		// Pre-rounding, the overhead is exactly 10/7 − 1 ≈ 42.9%.
		if unrounded := 10.0/7.0 - 1; unrounded > 0.43 {
			t.Fatalf("10/7 factor exceeds the 43%% claim: %v", unrounded)
		}
	}
}

func TestEquation2Monotone(t *testing.T) {
	tbl, err := Equation2(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range tbl.Rows {
		var b float64
		if _, err := sscan(row[2], &b); err != nil {
			t.Fatal(err)
		}
		if b < prev {
			t.Fatalf("Eq-2 bandwidth not monotone in r: %v after %v", b, prev)
		}
		prev = b
	}
}

func TestExample1Results(t *testing.T) {
	tbl, err := Example1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if !strings.HasPrefix(tbl.Rows[0][2], "schedulable") {
		t.Fatalf("system 1: %s", tbl.Rows[0][2])
	}
	if !strings.HasPrefix(tbl.Rows[1][2], "schedulable") {
		t.Fatalf("system 2: %s", tbl.Rows[1][2])
	}
	if tbl.Rows[2][2] != "infeasible (proved)" {
		t.Fatalf("system 3: %s", tbl.Rows[2][2])
	}
}

func TestExamples2to6NeverWorseThanPaper(t *testing.T) {
	// Examples2to6 itself errors if any conversion is worse than the
	// paper's; success plus row count is the assertion.
	tbl, err := Examples2to6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestDensitySweepShape(t *testing.T) {
	tbl, err := DensitySweep([]float64{0.4, 0.7}, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	// At density 0.4, Sa must succeed on every trial (guarantee ≤ 0.5);
	// the portfolio must succeed everywhere up to 0.7.
	if tbl.Rows[0][1] != "10/10" {
		t.Fatalf("Sa at 0.4: %s", tbl.Rows[0][1])
	}
	last := len(tbl.Header) - 1
	for _, row := range tbl.Rows {
		if row[last] != "10/10" {
			t.Fatalf("portfolio at %s: %s", row[0], row[last])
		}
	}
}

func TestBlockSizeTradeoff(t *testing.T) {
	tbl, err := BlockSizeTradeoff(4096, []int{2, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 13 {
		t.Fatalf("tables = %d, want 13", len(tables))
	}
	for _, tbl := range tables {
		if s := tbl.String(); !strings.Contains(s, tbl.ID) {
			t.Fatalf("table %s renders without its ID", tbl.ID)
		}
	}
}

// sscan parses a float from a cell.
func sscan(s string, f *float64) (int, error) {
	return fmt.Sscan(s, f)
}

func TestPerFileFaultsTable(t *testing.T) {
	tbl, err := PerFileFaults(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The no-fault-tolerance policy must need the least bandwidth.
	var none, uniform float64
	for _, row := range tbl.Rows {
		var v float64
		if _, err := sscan(row[1], &v); err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "no fault tol.":
			none = v
		case "uniform r=2":
			uniform = v
		}
	}
	if none >= uniform {
		t.Fatalf("no-fault necessary %v not below uniform-r %v", none, uniform)
	}
}
