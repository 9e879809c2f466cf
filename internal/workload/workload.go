// Package workload generates the broadcast-disk workloads the paper's
// introduction motivates: IVHS (Intelligent Vehicle Highway System)
// traffic dissemination and AWACS battlefield data — plus parameterized
// random workloads for sweeps. All generators are seeded and
// reproducible.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"pinbcast/internal/core"
	"pinbcast/internal/rtdb"
)

// IVHS returns the broadcast files of an Intelligent Vehicle Highway
// System serving nSegments highway segments: per segment a frequently
// refreshed traffic-conditions file and a slower incident file, plus
// one shared route-guidance map. Latencies are in 100 ms units.
func IVHS(nSegments int, seed int64) []core.FileSpec {
	if nSegments < 1 {
		panic("workload: need at least one segment")
	}
	rng := rand.New(rand.NewSource(seed))
	var files []core.FileSpec
	for s := 0; s < nSegments; s++ {
		files = append(files, core.FileSpec{
			Name:    fmt.Sprintf("traffic-%02d", s),
			Blocks:  1 + rng.Intn(3),   // small, hot updates
			Latency: 10 + rng.Intn(20), // 1–3 s freshness
			Faults:  1,
		})
		files = append(files, core.FileSpec{
			Name:    fmt.Sprintf("incident-%02d", s),
			Blocks:  2 + rng.Intn(4),
			Latency: 50 + rng.Intn(50), // 5–10 s
			Faults:  2,                 // incident reports are critical
		})
	}
	files = append(files, core.FileSpec{
		Name:    "route-map",
		Blocks:  16 + rng.Intn(16),
		Latency: 600, // 60 s: the map changes slowly
		Faults:  1,
	})
	return files
}

// AWACS returns the paper's AWACS real-time database: positional items
// whose temporal constraints derive from platform velocities, with
// mode-dependent criticality.
func AWACS() *rtdb.Database {
	return &rtdb.Database{
		Unit: 100 * time.Millisecond,
		Items: []rtdb.Item{
			{
				Name:     "aircraft-pos",
				Velocity: rtdb.KmPerHour(900),
				Accuracy: 100,
				Blocks:   4,
				FaultsByMode: map[rtdb.Mode]int{
					"combat":  2,
					"landing": 1,
				},
			},
			{
				Name:     "tank-pos",
				Velocity: rtdb.KmPerHour(60),
				Accuracy: 100,
				Blocks:   2,
				FaultsByMode: map[rtdb.Mode]int{
					"combat": 1,
				},
			},
			{
				Name:     "helicopter-pos",
				Velocity: rtdb.KmPerHour(240),
				Accuracy: 100,
				Blocks:   3,
				FaultsByMode: map[rtdb.Mode]int{
					"combat":  2,
					"landing": 1,
				},
			},
			{
				Name:     "convoy-route",
				Velocity: rtdb.KmPerHour(30),
				Accuracy: 250,
				Blocks:   6,
				FaultsByMode: map[rtdb.Mode]int{
					"combat": 1,
				},
			},
		},
	}
}

// Random returns n random file specifications with sizes in
// [1, maxBlocks], latencies in [minLatency, maxLatency] and fault
// tolerances in [0, maxFaults].
func Random(n int, maxBlocks, minLatency, maxLatency, maxFaults int, seed int64) []core.FileSpec {
	if n < 1 || maxBlocks < 1 || minLatency < 1 || maxLatency < minLatency || maxFaults < 0 {
		panic("workload: invalid Random parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	files := make([]core.FileSpec, n)
	for i := range files {
		files[i] = core.FileSpec{
			Name:    fmt.Sprintf("f%03d", i),
			Blocks:  1 + rng.Intn(maxBlocks),
			Latency: minLatency + rng.Intn(maxLatency-minLatency+1),
			Faults:  rng.Intn(maxFaults + 1),
		}
	}
	return files
}

// Contents fabricates deterministic file contents sized to the specs
// (blockSize bytes per block), for end-to-end simulations: the stream
// rand.New(rand.NewSource(seed)).Read writes into each file in turn, a
// draw's unused bytes opening the next file. bdserved and bdload
// regenerate a catalogue from its seed and rely on these exact bytes.
// Read calls through rand.Source once per draw and stores a byte per
// loop pass; here lagFib runs math/rand's own recurrence in place, 8
// draws' low 7 bytes go out as 7 little-endian word stores, a draw short
// of a group as one 8-byte store, and only a carried head and the tail
// go byte by byte.
func Contents(files []core.FileSpec, blockSize int, seed int64) map[string][]byte {
	g := newLagFib(seed)
	out := make(map[string][]byte, len(files))
	val, pos := uint64(0), 0 // the last draw's pos unused bytes, lowest next
	for _, f := range files {
		data := make([]byte, f.Blocks*blockSize)
		for n := 0; n < len(data); n++ {
			if pos == 0 {
				n += g.fill(data[n:])
				val, pos = g.step(1)[0], 7
			}
			data[n], val, pos = byte(val), val>>8, pos-1
		}
		out[f.Name] = data
	}
	return out
}

// A seeded math/rand source is an additive lagged-Fibonacci generator:
// draw n is draw n−607 plus draw n−273, mod 2⁶⁴.
const lagLong, lagShort = 607, 273

// lagFib runs that recurrence in place: y[n mod 607] holds draw n once
// it is drawn, and draw n−607 until then.
type lagFib struct {
	y [lagLong]uint64
	k int // the next draw's index in y
}

// newLagFib seeds the table from math/rand itself: its first 607 draws,
// run back once to the 607 before them. Int63 is what Read draws too:
// an addition carries upward only, so bit 63 never reaches a byte. From
// the top down, draw i−607 = draw i − draw i−273, and the latter sits at
// (i+334) mod 607, already run back exactly when i < 273.
func newLagFib(seed int64) lagFib {
	g, src := lagFib{}, rand.NewSource(seed)
	for i := range g.y {
		g.y[i] = uint64(src.Int63())
	}
	for i := lagLong - 1; i >= 0; i-- {
		g.y[i] -= g.y[(i+lagLong-lagShort)%lagLong]
	}
	return g
}

// step makes the next c draws, no further than y's end, and returns
// them. It runs in two loops split where the short lag wraps: below 273
// a draw reads the last turn's y[i+334], from 273 on this turn's
// y[i−273], which the same loop may just have drawn.
func (g *lagFib) step(c int) []uint64 {
	k, end := g.k, g.k+c
	if m := min(end, lagShort); k < m {
		addLag(g.y[k:m], g.y[k+lagLong-lagShort:])
	}
	if m := max(k, lagShort); m < end {
		addLag(g.y[m:end], g.y[m-lagShort:])
	}
	g.k = end % lagLong
	return g.y[k:end]
}

// addLag adds b into a element by element, in order, so b may run into a.
func addLag(a, b []uint64) {
	for i, v := range b[:len(a)] {
		a[i] += v
	}
}

// fill writes whole draws into data, 7 bytes each, while 8 bytes remain,
// leaving a tail of 1 to 7, and returns how many bytes it wrote: 8 draws
// as 7 word stores while more than 56 remain and y has 8 draws left,
// else one 8-byte store advancing 7 (the next overwrites its 8th byte).
func (g *lagFib) fill(data []byte) int {
	const low7 = 1<<56 - 1
	n, le := 0, binary.LittleEndian
	for len(data)-n >= 8 {
		groups := min((len(data)-n-1)/56, (lagLong-g.k)/8)
		if groups == 0 {
			le.PutUint64(data[n:], g.step(1)[0])
			n += 7
			continue
		}
		for w := g.step(8 * groups); len(w) >= 8; w, n = w[8:], n+56 {
			d := data[n : n+56]
			le.PutUint64(d[0:], w[0]&low7|w[1]<<56)
			le.PutUint64(d[8:], w[1]&low7>>8|w[2]<<48)
			le.PutUint64(d[16:], w[2]&low7>>16|w[3]<<40)
			le.PutUint64(d[24:], w[3]&low7>>24|w[4]<<32)
			le.PutUint64(d[32:], w[4]&low7>>32|w[5]<<24)
			le.PutUint64(d[40:], w[5]&low7>>40|w[6]<<16)
			le.PutUint64(d[48:], w[6]&low7>>48|w[7]<<8)
		}
	}
	return n
}
