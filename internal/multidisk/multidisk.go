// Package multidisk implements the classic Acharya–Franklin–Zdonik
// multi-disk broadcast program generator (SIGMOD '95), the prior art
// §1 of Baruah & Bestavros builds on: hot files are placed on
// fast-spinning (frequently repeated) disks and cold files on slow
// ones, minimizing the *average* latency over a skewed access pattern.
//
// The paper's argument is that in a real-time database, minimizing
// average latency is the wrong objective — per-file worst-case window
// guarantees are what admission control and temporal consistency need.
// This package exists to make that comparison concrete: experiment E12
// measures the mean and worst-case retrieval latencies of multi-disk
// versus pinwheel programs on the same workload.
package multidisk

import (
	"fmt"
	"sort"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
	"pinbcast/internal/slotmath"
)

// Disk is one broadcast disk: a relative spinning frequency and the
// files stored on it. A file's blocks live contiguously on its disk.
type Disk struct {
	Frequency int // relative broadcast frequency (≥ 1); larger = hotter
	Files     []core.FileSpec
}

// Validate checks the disk.
func (d Disk) Validate() error {
	if d.Frequency < 1 {
		return fmt.Errorf("multidisk: frequency %d < 1", d.Frequency)
	}
	if len(d.Files) == 0 {
		return fmt.Errorf("multidisk: empty disk")
	}
	return nil
}

// BuildProgram generates the interleaved broadcast program:
//
//  1. let L = lcm of the disk frequencies;
//  2. split disk i into L/fᵢ equal chunks (padding with idle slots);
//  3. minor cycle k broadcasts chunk k mod (L/fᵢ) of every disk i.
//
// Files on a disk of frequency f appear f times per major cycle.
func BuildProgram(disks []Disk) (*core.Program, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("multidisk: no disks")
	}
	// Frequencies are relative: normalize by their gcd so that a lone
	// disk (or uniformly scaled frequencies) yields the minimal cycle.
	g := 0
	for _, d := range disks {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		g = slotmath.GCD(g, d.Frequency)
	}
	freqs := make([]int, len(disks))
	l := 1
	for i, d := range disks {
		freqs[i] = d.Frequency / g
		var err error
		if l, err = slotmath.LCM(l, freqs[i]); err != nil {
			return nil, fmt.Errorf("multidisk: major cycle (lcm of %d disk frequencies) overflows: %w",
				len(disks), bcerr.ErrInfeasible)
		}
	}

	// Flatten each disk's contents into block-granularity entries of
	// file indices, and collect the combined file table.
	var infos []core.FileInfo
	fileIdx := map[string]int{}
	contents := make([][]int, len(disks))
	for di, d := range disks {
		for _, f := range d.Files {
			if err := f.Validate(); err != nil {
				return nil, err
			}
			if _, dup := fileIdx[f.Name]; dup {
				return nil, fmt.Errorf("multidisk: duplicate file %q", f.Name)
			}
			fi := len(infos)
			fileIdx[f.Name] = fi
			infos = append(infos, core.FileInfo{
				Name: f.Name, M: f.Blocks, N: f.Width(), Demand: f.Demand(),
			})
			for k := 0; k < f.Demand(); k++ {
				contents[di] = append(contents[di], fi)
			}
		}
	}

	// Chunk each disk.
	type chunked struct {
		numChunks int
		chunkSize int
		data      []int // padded to numChunks*chunkSize, Idle as filler
	}
	chunks := make([]chunked, len(disks))
	for di := range disks {
		freq := freqs[di]
		if freq < 1 {
			return nil, fmt.Errorf("multidisk: disk %d normalized frequency %d < 1: %w", di, freq, bcerr.ErrInfeasible)
		}
		nc := l / freq
		size := (len(contents[di]) + nc - 1) / nc
		data := make([]int, nc*size)
		for i := range data {
			if i < len(contents[di]) {
				data[i] = contents[di][i]
			} else {
				data[i] = core.Idle
			}
		}
		chunks[di] = chunked{numChunks: nc, chunkSize: size, data: data}
	}

	// Major cycle: L minor cycles, each carrying one chunk per disk.
	var slots []int
	for minor := 0; minor < l; minor++ {
		for di := range disks {
			c := chunks[di]
			k := minor % c.numChunks
			slots = append(slots, c.data[k*c.chunkSize:(k+1)*c.chunkSize]...)
		}
	}
	p, err := core.NewProgram(infos, slots, 0, "multidisk")
	if err != nil {
		return nil, err
	}
	return p, nil
}

// AutoTier partitions files into frequency-tiered broadcast disks by
// latency constraint — the hot/cold partitioning of Acharya et al.
// applied to real-time specs: with Lmax the loosest latency in the set,
// a file of latency L lands on a disk of relative frequency 2^⌊log₂
// Lmax/L⌋, so tightly-constrained (hot) files spin fastest. Frequencies
// are powers of two, keeping the major cycle (their lcm) small. Disks
// are returned hottest first; files keep their input order within a
// disk.
func AutoTier(files []core.FileSpec) ([]Disk, error) {
	if err := core.ValidateAll(files); err != nil {
		return nil, err
	}
	maxLat := 0
	for _, f := range files {
		if f.Latency > maxLat {
			maxLat = f.Latency
		}
	}
	tier := func(f core.FileSpec) int {
		// freq doubles while 2·freq·L ≤ Lmax, i.e. freq ≤ Lmax/L/2 in
		// floor arithmetic — phrased divisively so the loop cannot
		// overflow (or spin forever) on adversarial latency ratios.
		freq := 1
		for freq <= maxLat/f.Latency/2 {
			freq *= 2
		}
		return freq
	}
	byFreq := map[int][]core.FileSpec{}
	var freqs []int
	for _, f := range files {
		q := tier(f)
		if _, seen := byFreq[q]; !seen {
			freqs = append(freqs, q)
		}
		byFreq[q] = append(byFreq[q], f)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	disks := make([]Disk, len(freqs))
	for i, q := range freqs {
		disks[i] = Disk{Frequency: q, Files: byFreq[q]}
	}
	return disks, nil
}

// Plan auto-tiers the files and builds the tiered broadcast program —
// the planning path behind the public "tiered" layout.
func Plan(files []core.FileSpec) (*core.Program, error) {
	disks, err := AutoTier(files)
	if err != nil {
		return nil, err
	}
	return BuildProgram(disks)
}
