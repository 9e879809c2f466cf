// Package cluster plans and tracks sharded multi-channel broadcast
// deployments: a catalog is partitioned across K broadcast channels by
// a Shard policy, the hottest files are replicated on R ≥ 2
// channels (quorum-style: any K−R+1 live channels still carry every
// replicated file, so the deployment withstands R−1 channel deaths
// without repair — the Goemans–Lynch–Saias regime), and a missed-slot
// Detector classifies channels live or dead from what a receiver
// observes on the fan-out seam.
//
// The package is the coordination engine behind the public
// pinbcast.Cluster; it deliberately knows nothing about Stations,
// transports or goroutines — it plans over file specifications and
// tracks slot observations, and the public layer wires those decisions
// to running services.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/core"
)

// Shard maps each file of a catalog to a primary broadcast channel in
// [0, k), in input order. Policies are deterministic so a deployment
// plan is reproducible from its inputs.
type Shard func(files []core.FileSpec, k int) []int

// Heat is the planner's access-frequency proxy for one file: its
// bandwidth share (mᵢ+rᵢ)/Tᵢ. A file with a tight latency constraint
// is rebroadcast often — it is hot in exactly the
// Acharya–Franklin–Zdonik sense, and it is the file whose loss hurts
// most, so replication targets the highest-Heat files first.
func Heat(f core.FileSpec) float64 {
	if f.Latency <= 0 {
		return 0
	}
	return float64(f.Demand()) / float64(f.Latency)
}

// HashShard assigns each file by FNV-32a of its name modulo k — the
// stateless baseline: no balance guarantee, but a file's home is
// computable from its name alone.
func HashShard(files []core.FileSpec, k int) []int {
	out := make([]int, len(files))
	for i, f := range files {
		h := fnv.New32a()
		h.Write([]byte(f.Name))
		out[i] = int(h.Sum32() % uint32(k))
	}
	return out
}

// HotColdShard splits the catalog at the median Heat: hot files are
// spread round-robin over the first ⌈k/2⌉ channels, cold files over the
// rest — so hot channels carry few, frequently-spun files (short
// periods, tight worst cases) and cold channels absorb the bulk.
func HotColdShard(files []core.FileSpec, k int) []int {
	order := heatOrder(files)
	hotChannels := (k + 1) / 2
	coldChannels := k - hotChannels
	hotFiles := (len(files) + 1) / 2
	out := make([]int, len(files))
	for rank, i := range order {
		if rank < hotFiles || coldChannels == 0 {
			out[i] = rank % hotChannels
		} else {
			out[i] = hotChannels + (rank-hotFiles)%coldChannels
		}
	}
	return out
}

// BalancedShard equalizes per-channel bandwidth demand: files are
// placed hottest-first on the channel with the least accumulated Heat
// (longest-processing-time bin packing). Balanced demand keeps every
// channel's Equation-2 bandwidth — and with it the per-channel latency
// profile (core.Program.LatencyProfile) — as even as the catalog
// allows, which is what a latency-balanced deployment wants.
func BalancedShard(files []core.FileSpec, k int) []int {
	out := make([]int, len(files))
	load := make([]float64, k)
	for _, i := range heatOrder(files) {
		best := 0
		for c := 1; c < k; c++ {
			if load[c] < load[best] {
				best = c
			}
		}
		out[i] = best
		load[best] += Heat(files[i])
	}
	return out
}

// heatOrder returns file indices sorted by descending Heat, ties broken
// by name for determinism.
func heatOrder(files []core.FileSpec) []int {
	order := make([]int, len(files))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ha, hb := Heat(files[order[a]]), Heat(files[order[b]])
		if ha != hb {
			return ha > hb
		}
		return files[order[a]].Name < files[order[b]].Name
	})
	return order
}

// Hottest returns the names of the n highest-Heat files (all of them
// when n exceeds the catalog), in descending Heat order.
func Hottest(files []core.FileSpec, n int) []string {
	if n > len(files) {
		n = len(files)
	}
	if n < 0 {
		n = 0
	}
	order := heatOrder(files)
	out := make([]string, 0, n)
	for _, i := range order[:n] {
		out = append(out, files[i].Name)
	}
	return out
}

// Assignment is a planned deployment: which files each channel
// broadcasts and where each file lives.
type Assignment struct {
	// Channels lists the files each channel broadcasts (primaries and
	// replicas), in catalog order.
	Channels [][]core.FileSpec
	// Homes maps each file to the channels carrying it, primary first;
	// a replicated file has more than one.
	Homes map[string][]int
}

// Plan shards the catalog over k channels under the policy and
// replicates the `hottest` highest-Heat files on `replicas` channels
// each. With replicas copies, any replicas−1 channel deaths leave at
// least one live carrier for every replicated file (equivalently: every
// k−replicas+1 live channels form a read quorum for them). Replica
// channels are chosen coldest-first so redundancy rides on the spare
// capacity. The files' names must be distinct (core.ValidateAll).
// Every channel must end up with at least one file; violations wrap
// bcerr.ErrBadSpec.
func Plan(files []core.FileSpec, k, replicas, hottest int, shard Shard) (*Assignment, error) {
	switch {
	case len(files) == 0:
		return nil, fmt.Errorf("cluster: no files to shard: %w", bcerr.ErrBadSpec)
	case k < 1:
		return nil, fmt.Errorf("cluster: need at least one channel, got %d: %w", k, bcerr.ErrBadSpec)
	case k > len(files):
		return nil, fmt.Errorf("cluster: %d channels exceed %d files (every channel needs one): %w",
			k, len(files), bcerr.ErrBadSpec)
	case replicas < 1 || replicas > k:
		return nil, fmt.Errorf("cluster: replicas %d out of range [1, %d]: %w", replicas, k, bcerr.ErrBadSpec)
	case hottest < 0 || hottest > len(files):
		return nil, fmt.Errorf("cluster: hottest %d out of range [0, %d]: %w", hottest, len(files), bcerr.ErrBadSpec)
	}

	asn := &Assignment{Channels: make([][]core.FileSpec, k), Homes: make(map[string][]int, len(files))}
	load := make([]float64, k)
	for i, c := range shard(files, k) {
		f := files[i]
		asn.Channels[c] = append(asn.Channels[c], f)
		asn.Homes[f.Name] = []int{c}
		load[c] += Heat(f)
	}
	for c, chFiles := range asn.Channels {
		if len(chFiles) == 0 {
			return nil, fmt.Errorf("cluster: the shard policy left channel %d empty (use balanced, or fewer channels): %w",
				c, bcerr.ErrBadSpec)
		}
	}

	if replicas > 1 {
		for _, i := range heatOrder(files)[:hottest] {
			f := files[i]
			for len(asn.Homes[f.Name]) < replicas {
				c := coldestAvoiding(load, asn.Homes[f.Name])
				asn.Channels[c] = append(asn.Channels[c], f)
				asn.Homes[f.Name] = append(asn.Homes[f.Name], c)
				load[c] += Heat(f)
			}
		}
	}
	return asn, nil
}

// coldestAvoiding returns the least-loaded channel not in taken.
func coldestAvoiding(load []float64, taken []int) int {
	best := -1
	for c := range load {
		used := false
		for _, t := range taken {
			if t == c {
				used = true
				break
			}
		}
		if used {
			continue
		}
		if best < 0 || load[c] < load[best] {
			best = c
		}
	}
	return best
}
