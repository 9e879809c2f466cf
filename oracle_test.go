package pinbcast

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// retrieval is the oracle's account of a listener's worst case.
type retrieval struct {
	slots   int // from the start slot through the completing reception
	channel int // the completing reception's channel
	heard   int // receptions of the file through it, destroyed ones included
	repeats int // of those, the ones whose block number was heard before
}

// worstRetrieval is the conformance oracle. A listener tunes in at slot
// start of the air and needs m distinct block numbers of file, while an
// adversary destroys the r receptions that hold it back longest. at(ch,
// t) is what channel ch carries at slot t — a file name and a block
// number, an idle slot any name no listener asks for — and the listener
// hears the channels in lock-step, lower index first within a slot. ok
// is false when some r destroyed receptions keep it short for all of
// horizon slots.
//
// The rule is exact on any air, and assumes nothing of rotations,
// ranges or distinct numbers. Through a reception the adversary can hold
// the listener short if and only if destroying every copy of the D−m+1
// least-heard of the D distinct numbers heard so far costs at most r
// receptions; the listener completes on the first reception where it
// costs more. With no number repeated that is the (m+r)-th arrival.
func worstRetrieval(at func(ch, t int) (string, int), channels, start, horizon int, file string, m, r int) (retrieval, bool) {
	var got retrieval
	var numbers, copies, least []int // each distinct number heard, how often; scratch
	for k := 0; k < horizon; k++ {
		for ch := 0; ch < channels; ch++ {
			name, block := at(ch, start+k)
			if name != file {
				continue
			}
			if got.heard++; slices.Contains(numbers, block) {
				got.repeats++
				copies[slices.Index(numbers, block)]++
			} else {
				numbers, copies = append(numbers, block), append(copies, 1)
			}
			if len(numbers) < m {
				continue
			}
			least = append(least[:0], copies...)
			slices.Sort(least)
			cost := 0
			for _, c := range least[:len(least)-m+1] {
				cost += c
			}
			if cost > r {
				got.slots, got.channel = k+1, ch
				return got, true
			}
		}
	}
	return retrieval{}, false
}

// reception is one channel's slot in TestOracleIsExact's airs.
type reception struct {
	file  string
	block int
}

// bruteForce is the oracle's definition enumerated: over every set of at
// most r destroyed receptions of file, the latest on which the listener
// first holds m distinct numbers, or ok false when some set keeps it
// short to the end of the air. It takes at most 64 receptions of file,
// numbered below 64.
func bruteForce(air [][]reception, start int, file string, m, r int) (retrieval, bool) {
	type rx struct{ slot, channel, block int }
	var rxs []rx
	for k := start; k < len(air[0]); k++ {
		for ch := range air {
			if s := air[ch][k]; s.file == file {
				rxs = append(rxs, rx{k - start, ch, s.block})
			}
		}
	}
	completes := func(destroyed uint64) int {
		var held uint64
		for i, x := range rxs {
			if destroyed&(1<<i) == 0 {
				if held |= 1 << x.block; bits.OnesCount64(held) == m {
					return i
				}
			}
		}
		return len(rxs)
	}
	latest := -1
	var destroy func(from, left int, destroyed uint64)
	destroy = func(from, left int, destroyed uint64) {
		latest = max(latest, completes(destroyed))
		for i := from; i < len(rxs) && left > 0 && latest < len(rxs); i++ {
			destroy(i+1, left-1, destroyed|1<<i)
		}
	}
	destroy(0, r, 0)
	if latest == len(rxs) {
		return retrieval{}, false
	}
	var heard uint64
	for _, x := range rxs[:latest+1] {
		heard |= 1 << x.block
	}
	last := rxs[latest]
	return retrieval{last.slot + 1, last.channel, latest + 1, latest + 1 - bits.OnesCount64(heard)}, true
}

// TestOracleIsExact holds worstRetrieval to its definition: on seeded
// airs of one to three channels and at most ten slots — block numbers 0
// to 3 repeating, some slots idle or another file's — from every start,
// for every m ≤ 4 and r ≤ 3, it reports what brute force over every set
// of at most r destroyed receptions finds. On a, b, a, c, d with m = 2
// and r = 1, destroying the earliest useful arrival (a) leaves the
// listener complete on the second a; destroying b holds it to slot 4.
func TestOracleIsExact(t *testing.T) {
	fromAir := func(air [][]reception) func(ch, t int) (string, int) {
		return func(ch, t int) (string, int) { return air[ch][t].file, air[ch][t].block }
	}
	abacd := [][]reception{{{"f", 0}, {"f", 1}, {"f", 0}, {"f", 2}, {"f", 3}}}
	if got, ok := worstRetrieval(fromAir(abacd), 1, 0, 5, "f", 2, 1); !ok || got != (retrieval{slots: 4, heard: 4, repeats: 1}) {
		t.Fatalf("a, b, a, c, d with m = 2 and r = 1: %+v (completes %v), want 4 slots", got, ok)
	}
	rng := rand.New(rand.NewPCG(1, 34))
	cases := 0
	for range 400 {
		air := make([][]reception, 1+rng.IntN(3))
		slots := 1 + rng.IntN(10)
		for ch := range air {
			air[ch] = make([]reception, slots)
			for k := range air[ch] { // a fifth idle, a tenth another file's
				air[ch][k] = reception{[]string{"", "", "g", "f", "f", "f", "f", "f", "f", "f"}[rng.IntN(10)], rng.IntN(4)}
			}
		}
		for start := range slots {
			for m := 1; m <= 4; m++ {
				for r := 0; r <= 3; r++ {
					got, ok := worstRetrieval(fromAir(air), len(air), start, slots-start, "f", m, r)
					want, wantOK := bruteForce(air, start, "f", m, r)
					if got != want || ok != wantOK {
						t.Fatalf("air %v from slot %d, m %d, r %d: oracle %+v (completes %v), brute force %+v (completes %v)",
							air, start, m, r, got, ok, want, wantOK)
					}
					cases++
				}
			}
		}
	}
	t.Logf("the oracle agrees with brute force on all %d cases", cases)
}

// TestWorstLatencyIsTheOracle holds the closed form to the oracle. For
// every file of every catalogue × layout × scheduler program
// (catalogPrograms) and every f in 0…N−M, Program.WorstLatency(file, f)
// is the oracle's worst retrieval over the starts of one data cycle with
// f receptions destroyed; f = N−M+1 is refused. The horizon assumes only
// that a period carries the file: the (M+f)-th reception comes within
// M+f periods.
func TestWorstLatencyIsTheOracle(t *testing.T) {
	programs, checked, most := catalogPrograms(t), 0, 0
	for _, c := range programs {
		p := c.prog
		for i, info := range p.Files {
			for f := 0; f <= info.N-info.M; f++ {
				want := oracleWorst(t, c.name, p, i, f)
				if got, err := p.WorstLatency(i, f); err != nil || got != want {
					t.Fatalf("%s: %s with %d faults: WorstLatency %d (%v), the oracle %d", c.name, info.Name, f, got, err, want)
				}
				checked, most = checked+1, max(most, f)
			}
			if _, err := p.WorstLatency(i, info.N-info.M+1); err == nil {
				t.Fatalf("%s: %s: %d faults, one past N−M, accepted", c.name, info.Name, info.N-info.M+1)
			}
		}
	}
	t.Logf("%d programs: WorstLatency equals the oracle on %d (file, f) pairs, f from 0 to %d", len(programs), checked, most)
}

// TestWorstLatencyIsTheOracleOnGeneralizedPrograms holds the §4 path to
// the same oracle. On the generalized file sets the tree builds and on
// seeded random latency vectors d⃗ (those that fail to build are
// skipped and counted), each file's worst retrieval under j erasures is
// WorstLatency(file, j) and meets its level-j latency d_j.
func TestWorstLatencyIsTheOracleOnGeneralizedPrograms(t *testing.T) {
	sets := [][]FileSpec{
		{ // Examples 2 and 3 of §4
			vectorFile("E2", 5, 100, 105, 110, 115, 120),
			vectorFile("E3", 6, 105, 110),
		},
		{ // examples/faulttolerance and BenchmarkGeneralizedConstruction
			vectorFile("nav", 3, 10, 14, 18),
			vectorFile("met", 2, 12, 16),
		},
		{ // internal/core's TestBuildGeneralizedProgram
			vectorFile("A", 2, 8, 10),
			vectorFile("B", 1, 6, 9),
		},
		{vectorFile("i", 4, 8, 9)},     // Example 4 of §4, TestFacadeAlgebra's set
		{vectorFile("E5", 2, 5, 6, 6)}, // Example 5
		{vectorFile("E6", 1, 2, 3)},    // Example 6
	}
	fixed := len(sets)
	rng := rand.New(rand.NewPCG(16, 41))
	for range 60 {
		files := make([]FileSpec, 1+rng.IntN(3))
		for i := range files {
			m := 1 + rng.IntN(4)
			d := make([]int, 1+rng.IntN(3))
			d[0] = m + rng.IntN(3*m+6)
			for j := 1; j < len(d); j++ {
				d[j] = d[j-1] + 1 + rng.IntN(m+3)
			}
			files[i] = vectorFile(string(rune('a'+i)), m, d...)
		}
		sets = append(sets, files)
	}
	built, checked := 0, 0
	for n, files := range sets {
		p, err := buildVectors(files)
		if err != nil {
			if n < fixed {
				t.Fatalf("set %d: %v", n, err)
			}
			continue
		}
		built++
		checked += holdToOracle(t, fmt.Sprintf("set %d (%s)", n, p.Origin), p, files)
	}
	t.Logf("%d generalized programs (%d of %d random vectors built): WorstLatency equals the oracle on %d (file, j) pairs, each within d_j",
		built, built-fixed, len(sets)-fixed, checked)
}

// TestGeneralizedBuildsWhatConversionRefuses holds to the oracle three
// sets that the conversion path alone refuses. On the first two it
// reported ErrInfeasible: their conjuncts are infeasible, not the
// files, and the walk schedules the files' own windows. The walk
// leaves the third undecided, and the convert member builds it.
func TestGeneralizedBuildsWhatConversionRefuses(t *testing.T) {
	cases := []struct {
		files   []FileSpec
		convert bool // built by the convert member
	}{
		{[]FileSpec{
			vectorFile("a", 1, 3, 7, 11),
			vectorFile("b", 3, 15, 18),
			vectorFile("c", 4, 11, 16),
		}, false},
		{[]FileSpec{
			vectorFile("a", 1, 2, 4),
			vectorFile("b", 1, 7, 10, 14),
			vectorFile("c", 1, 4),
		}, false},
		{[]FileSpec{
			vectorFile("a", 3, 15, 20, 26),
			vectorFile("b", 1, 8, 10),
			vectorFile("c", 3, 17, 18),
			vectorFile("d", 3, 10, 14, 16),
		}, true},
	}
	for _, c := range cases {
		p, err := buildVectors(c.files)
		if err != nil {
			t.Fatalf("%v: %v", c.files, err)
		}
		if got := strings.HasPrefix(p.Origin, "pinwheel/convert/"); got != c.convert {
			t.Errorf("%v: Origin %q, built by convert %v, want %v", c.files, p.Origin, got, c.convert)
		}
		holdToOracle(t, fmt.Sprintf("%v (%s)", c.files, p.Origin), p, c.files)
	}
}

// holdToOracle checks that each file's worst retrieval under j erasures
// is WorstLatency(file, j), within its level-j latency d_j, and returns
// how many (file, j) pairs it checked.
func holdToOracle(t *testing.T, name string, p *Program, files []FileSpec) (checked int) {
	t.Helper()
	for _, g := range files {
		i := p.FileIndex(g.Name)
		for j, d := range g.Latencies {
			want := oracleWorst(t, name, p, i, j)
			if got, err := p.WorstLatency(i, j); err != nil || got != want || want > d {
				t.Fatalf("%s: %s with %d faults: WorstLatency %d (%v), the oracle %d, d_%d = %d", name, g.Name, j, got, err, want, j, d)
			}
			checked++
		}
	}
	return checked
}

// oracleWorst is the oracle's worst retrieval of file i of p with f
// erasures, over every start slot of a data cycle.
func oracleWorst(t *testing.T, name string, p *Program, i, f int) int {
	t.Helper()
	at := func(_, t int) (string, int) {
		if g, seq := p.BlockAt(t); g != Idle {
			return p.Files[g].Name, seq
		}
		return "", 0
	}
	info, worst := p.Files[i], 0
	for start := range p.DataCycle() {
		got, ok := worstRetrieval(at, 1, start, (info.M+f)*p.Period, info.Name, info.M, f)
		if !ok {
			t.Fatalf("%s: %s from slot %d with %d faults: no retrieval within %d periods", name, info.Name, start, f, info.M+f)
		}
		worst = max(worst, got.slots)
	}
	return worst
}
