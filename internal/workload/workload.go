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
// Read spends a loop pass per byte; here a draw is one 8-byte
// little-endian store advancing 7 (its 7 bytes, low first; the next
// store overwrites the 8th) while 8 remain, and only a carried head
// and the tail go byte by byte.
func Contents(files []core.FileSpec, blockSize int, seed int64) map[string][]byte {
	src := rand.NewSource(seed)
	out := make(map[string][]byte, len(files))
	val, pos := int64(0), 0 // the last draw's pos unused bytes, lowest next
	for _, f := range files {
		data := make([]byte, f.Blocks*blockSize)
		for n := 0; n < len(data); n++ {
			if pos == 0 {
				for ; len(data)-n >= 8; n += 7 {
					binary.LittleEndian.PutUint64(data[n:], uint64(src.Int63()))
				}
				val, pos = src.Int63(), 7
			}
			data[n], val, pos = byte(val), val>>8, pos-1
		}
		out[f.Name] = data
	}
	return out
}
