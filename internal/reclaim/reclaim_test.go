package reclaim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"pinbcast/internal/cluster"
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

// catalogue is a program with what Plan takes beside it.
type catalogue struct {
	name      string
	prog      *core.Program
	specs     []core.FileSpec
	bandwidth int
}

// planCatalogues returns twelve seeded random catalogues, r ∈ {0, 1, 2}.
func planCatalogues(t testing.TB) (out []catalogue) {
	t.Helper()
	for seed := int64(1); seed <= 12; seed++ {
		files := workload.Random(8+int(seed)*4, 8, 10, 80, 2, seed)
		bandwidth := core.SufficientBandwidth(files)
		prog, err := core.BuildProgram(files, bandwidth)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, catalogue{fmt.Sprintf("seed %d", seed), prog, files, bandwidth})
	}
	return out
}

// daemonCatalogues rebuilds what the two stations of the cluster
// bdserved boots for bdload's daemon-paced workload plan their spare air
// from: sixteen files with r = 1 on two channels of the whole
// catalogue's Equation-2 bandwidth, the hottest quarter on both and
// specified on its first home only.
func daemonCatalogues(t testing.TB) (out []catalogue) {
	t.Helper()
	files := workload.Random(16, 6, 10, 80, 0, 1)
	for i := range files {
		files[i].Faults = 1
	}
	bandwidth := core.SufficientBandwidth(files)
	asn, err := cluster.Plan(files, 2, 2, 4, cluster.BalancedShard{})
	if err != nil {
		t.Fatal(err)
	}
	for ch, carried := range asn.Channels {
		prog, err := core.BuildProgram(carried, bandwidth)
		if err != nil {
			t.Fatal(err)
		}
		specs := slices.DeleteFunc(slices.Clone(carried), func(f core.FileSpec) bool { return asn.Homes[f.Name][0] != ch })
		out = append(out, catalogue{fmt.Sprintf("daemon channel %d", ch), prog, specs, bandwidth})
	}
	return out
}

func TestPlanInvariants(t *testing.T) {
	for _, cat := range planCatalogues(t) {
		tbl := Plan(cat.prog, cat.specs, cat.bandwidth)
		checkTable(t, cat.prog, tbl)
		if tbl.Reclaimed == 0 {
			t.Errorf("%s: nothing reclaimed of %d idle slots in %d", cat.name, tbl.Idle, cat.prog.Period)
		}
	}
}

// profileShares returns, per file of the catalogue that reclaims, the
// mean of core.Program.LatencyProfile on the table ÷ B·Tᵢ — share, by
// the one definition of expected latency — and their sum.
func profileShares(t testing.TB, cat catalogue, slots []int) (shares map[int]float64, total float64) {
	t.Helper()
	filled, err := core.NewProgram(cat.prog.Files, slots, cat.prog.Bandwidth, cat.prog.Origin)
	if err != nil {
		t.Fatalf("%s: the table is no program: %v", cat.name, err)
	}
	shares = map[int]float64{}
	for _, f := range cat.specs {
		if i := cat.prog.FileIndex(f.Name); filled.PerPeriod(i) > cat.prog.PerPeriod(i) {
			mean, _ := filled.LatencyProfile(i)
			shares[i] = mean / float64(cat.bandwidth*f.Latency)
			total += shares[i]
		}
	}
	return shares, total
}

// TestCoalesceOnlyPermutes: the third step of Plan exchanges files
// between reclaimed offsets and does nothing else. Per file the final
// table reclaims exactly what the even placement gave it, scheduled and
// empty offsets are as they were, Σ share is no higher than the even
// placement's — strictly lower on the daemon's two programs, which the
// log line is about — and the plan is the same every time.
func TestCoalesceOnlyPermutes(t *testing.T) {
	daemon := daemonCatalogues(t)
	for _, cat := range append(planCatalogues(t), daemon...) {
		tbl, c := place(cat.prog, cat.specs, cat.bandwidth)
		even := slices.Clone(tbl.Slots)
		passes, kept := 0, 0
		for k := 1; k > 0 && passes < maxPasses; passes++ { // Plan's loop, counting
			k = c.pass()
			kept += k
		}
		if plan := Plan(cat.prog, cat.specs, cat.bandwidth); !reflect.DeepEqual(plan, tbl) || !reflect.DeepEqual(plan, Plan(cat.prog, cat.specs, cat.bandwidth)) {
			t.Fatalf("%s: two plans of one program differ", cat.name)
		}
		perFile := make([]int, len(cat.prog.Files))
		for off, f := range cat.prog.Slots {
			switch was, is := even[off], tbl.Slots[off]; {
			case f != core.Idle && is != f:
				t.Fatalf("%s: offset %d is scheduled for file %d and sends file %d", cat.name, off, f, is)
			case (was == core.Idle) != (is == core.Idle):
				t.Fatalf("%s: offset %d held file %d before the exchanges and file %d after", cat.name, off, was, is)
			case f == core.Idle && is != core.Idle:
				perFile[was]++
				perFile[is]--
			}
		}
		if slices.Max(perFile) != 0 {
			t.Fatalf("%s: reclaimed slots per file changed by %v", cat.name, perFile)
		}
		shares, before := profileShares(t, cat, even)
		_, after := profileShares(t, cat, tbl.Slots)
		if after > before {
			t.Fatalf("%s: Σ share %.4f on the even placement, %.4f coalesced", cat.name, before, after)
		}
		if ch := slices.IndexFunc(daemon, func(d catalogue) bool { return d.prog == cat.prog }); ch >= 0 {
			t.Logf("%s: share even %.4f → coalesced %.4f over %d files, exchanges tried %d kept %d, passes %d",
				cat.name, before/float64(len(shares)), after/float64(len(shares)), len(shares), c.tried, kept, passes)
			if want := [2][2]int{{76, 77}, {75, 75}}[ch]; after == before || tbl.Reclaimed != want[0] || tbl.Idle != want[1] {
				t.Fatalf("%s reclaims %d of %d idle slots (bdserved: %d of %d) and Σ share goes from %.4f to %.4f",
					cat.name, tbl.Reclaimed, tbl.Idle, want[0], want[1], before, after)
			}
		}
	}
}

// TestShareIsLatencyProfile is the oracle of the delta evaluation. What
// move returns for a transmission taken from anywhere in a file's list
// to any idle offset is the difference of two whole sums; and over a
// whole plan, after every exchange kept and every pass — the undone ones
// — the totals the planner keeps incrementally are
// core.Program.LatencyProfile on the table as it then stands.
func TestShareIsLatencyProfile(t *testing.T) {
	for _, cat := range append(planCatalogues(t), daemonCatalogues(t)...) {
		tbl, c := place(cat.prog, cat.specs, cat.bandwidth)
		check := func() {
			t.Helper()
			shares, _ := profileShares(t, cat, tbl.Slots)
			for i, want := range shares {
				if got := float64(c.total[i]) / float64(cat.prog.Period) / c.window[i]; math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s after %d exchanges tried: the planner has share(%d) = %.12f, LatencyProfile gives %.12f", cat.name, c.tried, i, got, want)
				}
			}
		}
		check()
		for f, occ := range c.occ {
			for q := range occ {
				for _, to := range c.idle {
					if slices.Contains(occ, to) {
						continue
					}
					from := occ[q]
					delta, p := c.move(f, q, to)
					if want := sum(occ, cat.prog.Files[f].M, cat.prog.Period, 0, len(occ)) - c.total[f]; delta != want || !slices.IsSorted(occ) {
						t.Fatalf("%s: file %d from offset %d to %d changes its total by %d, move says %d and leaves %v", cat.name, f, from, to, want, delta, occ)
					}
					shift(occ, p, q, from)
				}
			}
		}
		for pass, kept := 0, 1; kept > 0 && pass < maxPasses; pass++ {
			kept = 0
			for j := range c.idle {
				for _, dir := range [2]int{1, -1} {
					if c.try(j, dir) {
						kept++
						check()
					}
				}
			}
			check()
		}
		if !reflect.DeepEqual(tbl, Plan(cat.prog, cat.specs, cat.bandwidth)) {
			t.Fatalf("%s: the passes of this test are not Plan's", cat.name)
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
// and holds the table of whatever program they build to checkTable, and
// its Σ share to the even placement's.
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
		cat := catalogue{"fuzzed", prog, files, bandwidth}
		even, _ := place(prog, files, bandwidth)
		tbl := Plan(prog, files, bandwidth)
		checkTable(t, prog, tbl)
		_, before := profileShares(t, cat, even.Slots)
		if _, after := profileShares(t, cat, tbl.Slots); after > before {
			t.Fatalf("Σ share %.6f on the even placement, %.6f coalesced", before, after)
		}
	})
}

// BenchmarkPlan times the planner alone, to set beside
// BenchmarkControlPlane/New/files=256: on the 256-file catalogue of
// bdload's admit-churn workload (period 2640) — the table is planned
// once per paced build and its budget is a tenth of that build — and on
// channel 0 of the daemon cluster.
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
	daemon := daemonCatalogues(b)[0]
	daemon.name = "daemon"
	for _, cat := range []catalogue{{"files=256", prog, files, bandwidth}, daemon} {
		b.Run(cat.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tbl := Plan(cat.prog, cat.specs, cat.bandwidth); tbl.Reclaimed == 0 {
					b.Fatal("nothing reclaimed")
				}
			}
		})
	}
}
