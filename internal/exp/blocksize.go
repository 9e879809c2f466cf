package exp

import (
	"fmt"
	"time"

	"pinbcast/internal/core"
	"pinbcast/internal/ida"
)

// BlockSizeTradeoff explores the open issue of §5: for a file of fixed
// byte size, a smaller block size b means a larger dispersal level m,
// which improves the error-recovery spacing δ and the bandwidth
// efficiency but raises the O(m²) dispersal/reconstruction cost. The
// table reports, per dispersal level, the resulting δ in a spread
// program, the per-retrieval fault coverage of a fixed 50% redundancy,
// and measured reconstruction time.
func BlockSizeTradeoff(fileBytes int, levels []int) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "§5 block-size tradeoff — dispersal level m vs δ and codec cost",
		Header: []string{"m", "block bytes", "N (50% red.)", "tolerated errs",
			"δ (slots)", "δ (bytes on air)", "reconstruct µs"},
	}
	for _, m := range levels {
		n := m + (m+1)/2 // 50% redundancy
		if n > 256 {
			return nil, fmt.Errorf("exp: dispersal level %d exceeds field limit", m)
		}
		blockBytes := (fileBytes + m - 1) / m
		// A spread program with a second file of equal demand, to make δ
		// meaningful.
		prog, err := core.FlatSpread([]core.FileSpec{
			{Name: "F", Blocks: m, Latency: 1, Faults: n - m, DispersalWidth: n},
			{Name: "G", Blocks: m, Latency: 1, Faults: n - m, DispersalWidth: n},
		})
		if err != nil {
			return nil, err
		}
		codec, err := ida.NewCodec(m, n)
		if err != nil {
			return nil, err
		}
		data := make([]byte, fileBytes)
		for i := range data {
			data[i] = byte(i)
		}
		payloads, err := codec.DisperseInto(data, nil)
		if err != nil {
			return nil, err
		}
		shards := make([]ida.Shard, m)
		for i := 0; i < m; i++ {
			shards[i] = ida.Shard{Seq: n - 1 - i, Data: payloads[n-1-i]}
		}
		start := time.Now()
		const reps = 50
		for k := 0; k < reps; k++ {
			if _, err := codec.ReconstructInto(shards, fileBytes, nil); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start) / reps
		// One slot transmits one block, so the error-recovery distance in
		// transmitted bytes is δ·blockBytes: finer dispersal shortens it.
		t.AddRow(m, blockBytes, n, n-m, prog.MaxGap(0), prog.MaxGap(0)*blockBytes,
			elapsed.Microseconds())
	}
	t.Notes = append(t.Notes,
		"larger m: more tolerated errors and shorter recovery distance on air,",
		"at a higher O(m²) codec cost — the §5 tradeoff")
	return t, nil
}
