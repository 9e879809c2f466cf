package reclaim

import (
	"fmt"
	"reflect"
	"testing"

	"pinbcast/internal/core"
	"pinbcast/internal/workload"
)

// checkTable holds a table to everything Plan documents, reading only
// the program and the table: nothing scheduled is touched, every
// reclaimed slot goes to a file of the program, each file reclaims whole
// rotations — so the filled table is a program with the data cycle of
// the one it fills — fewer idle slots than the smallest dispersal width
// stay empty, and the two counts say what the table does.
func checkTable(t testing.TB, prog *core.Program, tbl *Table) {
	t.Helper()
	if len(tbl.Slots) != prog.Period {
		t.Fatalf("table of %d slots for a period of %d", len(tbl.Slots), prog.Period)
	}
	perFile := make([]int, len(prog.Files))
	idle, reclaimed := 0, 0
	for off, f := range prog.Slots {
		file := tbl.Slots[off]
		if f != core.Idle {
			if file != f {
				t.Fatalf("offset %d is scheduled for file %d and the table sends file %d", off, f, file)
			}
			continue
		}
		if idle++; file == core.Idle {
			continue
		}
		reclaimed++
		if file < 0 || file >= len(prog.Files) {
			t.Fatalf("offset %d reclaimed by file %d, outside the program", off, file)
		}
		perFile[file]++
	}
	if tbl.Idle != idle || tbl.Reclaimed != reclaimed {
		t.Fatalf("table says %d of %d idle slots reclaimed, the period has %d of %d", tbl.Reclaimed, tbl.Idle, reclaimed, idle)
	}
	for i, info := range prog.Files {
		if perFile[i]%info.N != 0 {
			t.Fatalf("file %d reclaims %d slots a period, not a multiple of its width %d", i, perFile[i], info.N)
		}
		if idle-reclaimed >= info.N {
			t.Fatalf("%d idle slots left empty: a rotation of file %d (width %d) still fits", idle-reclaimed, i, info.N)
		}
	}
	filled, err := core.NewProgram(prog.Files, tbl.Slots, prog.Bandwidth, prog.Origin)
	if err != nil {
		t.Fatalf("the filled table is no program: %v", err)
	}
	if filled.DataCycle() != prog.DataCycle() {
		t.Fatalf("the filled table has a data cycle of %d slots, the program %d", filled.DataCycle(), prog.DataCycle())
	}
}

func TestPlanInvariants(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		files := workload.Random(8+int(seed)*4, 8, 10, 80, 2, seed)
		bandwidth := core.SufficientBandwidth(files)
		prog, err := core.BuildProgram(files, bandwidth)
		if err != nil {
			t.Fatal(err)
		}
		tbl := Plan(prog, files, bandwidth)
		checkTable(t, prog, tbl)
		if tbl.Reclaimed == 0 {
			t.Errorf("seed %d: nothing reclaimed of %d idle slots in %d", seed, tbl.Idle, prog.Period)
		}
		if !reflect.DeepEqual(tbl, Plan(prog, files, bandwidth)) {
			t.Errorf("seed %d: two plans of one program differ", seed)
		}
	}
}

// TestPlanPrefersTheTightestFile: the quotas follow the share of its
// window a file's retrieval takes, so of two files scheduled alike the
// one with more blocks to collect reclaims at least as much, and a file
// no specification names reclaims nothing.
func TestPlanPrefersTheTightestFile(t *testing.T) {
	files := []core.FileSpec{
		{Name: "small", Blocks: 1, Latency: 12, Faults: 1},
		{Name: "large", Blocks: 5, Latency: 12, Faults: 1},
	}
	prog, err := core.BuildProgram(files, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := func(tbl *Table) (perFile [2]int) {
		for off, f := range prog.Slots {
			if f == core.Idle && tbl.Slots[off] != core.Idle {
				perFile[tbl.Slots[off]]++
			}
		}
		return perFile
	}
	tbl := Plan(prog, files, 2)
	checkTable(t, prog, tbl)
	if got := count(tbl); got[1] == 0 || got[1] < got[0] {
		t.Fatalf("reclaimed slots per period %v: the 5-block file should get the larger share", got)
	}
	if got := count(Plan(prog, files[:1], 2)); got[1] != 0 || got[0] == 0 {
		t.Fatalf("reclaimed slots per period %v with only the first file specified", got)
	}
}

// FuzzReclaim decodes a small catalogue and a bandwidth from the input
// and holds the table of whatever program they build to checkTable.
func FuzzReclaim(f *testing.F) {
	f.Add([]byte{0, 2, 10, 1, 3, 20, 0})
	f.Add([]byte{1, 1, 4, 0, 1, 5, 0, 1, 6, 2})
	f.Add([]byte{3, 8, 60, 2, 7, 33, 1, 1, 9, 0, 4, 40, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		var files []core.FileSpec
		for b := raw[1:]; len(b) >= 3 && len(files) < 8; b = b[3:] {
			files = append(files, core.FileSpec{
				Name:    fmt.Sprintf("f%d", len(files)),
				Blocks:  1 + int(b[0])%8,
				Latency: 4 + int(b[1])%64,
				Faults:  int(b[2]) % 3,
			})
		}
		bandwidth := core.SufficientBandwidth(files) + int(raw[0])%4
		prog, err := core.BuildProgram(files, bandwidth)
		if err != nil {
			return // not every catalogue has a program at every bandwidth
		}
		checkTable(t, prog, Plan(prog, files, bandwidth))
	})
}

// BenchmarkPlan times the planner alone on the 256-file catalogue of
// bdload's admit-churn workload (period 2640), to set beside
// BenchmarkControlPlane/New/files=256: the table is planned once per
// paced build and its budget is a tenth of that build.
func BenchmarkPlan(b *testing.B) {
	files := workload.Random(256, 8, 10, 80, 0, 1)
	for i := range files {
		files[i].Faults = 1
	}
	bandwidth := core.SufficientBandwidth(files)
	prog, err := core.BuildProgram(files, bandwidth)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := Plan(prog, files, bandwidth); tbl.Reclaimed == 0 {
			b.Fatal("nothing reclaimed")
		}
	}
}
