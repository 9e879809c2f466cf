package pinbcast

import (
	"pinbcast/internal/cluster"
	"pinbcast/internal/workload"
)

// Scenario catalogs (internal/workload): the file sets and real-time
// databases of the paper's motivating applications, exported so the
// examples and any application can spin up a workload, pick a layout,
// and negotiate transaction contracts without touching internal
// packages. All generators are seeded and reproducible.

// IVHSCatalog returns the broadcast files of the paper's Intelligent
// Vehicle Highway System scenario (§1): per highway segment a
// frequently refreshed traffic-conditions file and a slower incident
// file, plus one shared route-guidance map. Latencies are in 100 ms
// units.
func IVHSCatalog(nSegments int, seed int64) []FileSpec {
	return workload.IVHS(nSegments, seed)
}

// AWACSCatalog returns the paper's AWACS real-time database (§1, §2.2):
// positional items whose temporal-consistency constraints derive from
// platform velocities, with mode-dependent criticality scaling each
// item's AIDA redundancy.
func AWACSCatalog() *RTDatabase { return workload.AWACS() }

// CatalogContents fabricates deterministic file contents sized to the
// specs (blockSize bytes per block) — the dispersal payloads the
// examples and simulations broadcast.
func CatalogContents(files []FileSpec, blockSize int, seed int64) map[string][]byte {
	return workload.Contents(files, blockSize, seed)
}

// HottestFiles returns the names of the catalog's n hottest files by
// bandwidth share (mᵢ+rᵢ)/Tᵢ, hottest first — the access-frequency
// proxy of broadcast disks (a tightly-constrained file is rebroadcast
// often). It is the heat model cluster replication uses: NewCluster
// replicates exactly these files (WithReplicateHottest), and a
// deployment can inspect the choice before committing a plan.
func HottestFiles(files []FileSpec, n int) []string {
	return cluster.Hottest(files, n)
}
