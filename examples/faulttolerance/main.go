// Fault tolerance: reproduces the paper's central comparison (§2.3,
// Figures 5–7) live. The same two files are broadcast twice — once as a
// plain flat program, once AIDA-dispersed — through a channel that
// destroys exactly the blocks an adversary would pick, and the observed
// recovery delays are set against Lemma 1 (r·τ) and Lemma 2 (r·δ). It
// then demonstrates generalized files (§4): latency vectors that relax
// gracefully as faults accumulate.
package main

import (
	"fmt"
	"log"

	"pinbcast"
	"pinbcast/internal/core"
)

func main() {
	flatFiles := []pinbcast.FileSpec{
		{Name: "A", Blocks: 5, Latency: 1},
		{Name: "B", Blocks: 3, Latency: 1},
	}
	aidaFiles := []pinbcast.FileSpec{
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 6},
	}
	flat, err := pinbcast.Build(pinbcast.BuildConfig{Files: flatFiles, Layout: pinbcast.LayoutFlatSpread})
	if err != nil {
		log.Fatal(err)
	}
	aida, err := pinbcast.Build(pinbcast.BuildConfig{Files: aidaFiles, Layout: pinbcast.LayoutFlatSpread})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flat program (τ=%d):  %s\n", flat.Period, flat)
	fmt.Printf("AIDA program (δ_A=%d, δ_B=%d), data cycle %d:\n  %s\n\n",
		aida.MaxGap(0), aida.MaxGap(1), aida.DataCycle(), aida.RenderCycle(aida.DataCycle()))

	contents := map[string][]byte{
		"A": []byte("file A: five blocks of navigation data"),
		"B": []byte("file B: three blocks"),
	}

	// Adversarial single error against file A's fifth reception.
	fmt.Println("single adversarial error on file A:")
	for _, tc := range []struct {
		name string
		prog *pinbcast.Program
	}{{"flat", flat}, {"AIDA", aida}} {
		kill := tc.prog.Occurrences(0)[4]
		rep, err := pinbcast.Simulate(pinbcast.SimConfig{
			Program:  tc.prog,
			Contents: contents,
			Fault:    pinbcast.SlotFaults(kill),
			Clients: []pinbcast.ClientSpec{
				{Start: 0, Requests: []pinbcast.Request{{File: "A"}}},
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		r := rep.Results[0]
		fmt.Printf("  %-5s latency %2d slots (fault-free: 8)\n", tc.name, r.Latency)
	}

	// The exact worst-case table (Figure 7's experiment).
	table, err := core.BuildDelayTable(aida, flat, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nworst-case delay vs errors (exact adversarial analysis):")
	fmt.Printf("  %-7s %-9s %-12s %-9s %-12s\n", "errors", "with IDA", "Lemma2 r·δ", "without", "Lemma1 r·τ")
	for i, r := range table.Errors {
		fmt.Printf("  %-7d %-9d %-12d %-9d %-12d\n",
			r, table.WithIDA[i], core.Lemma2Bound(r, 3), table.Without[i], core.Lemma1Bound(r, 8))
	}

	// Generalized files: a file that tolerates 10 slots fault-free but
	// accepts 14 with one fault and 18 with two (§4), slots at bandwidth 1.
	files := []pinbcast.FileSpec{
		{Name: "nav", Blocks: 3, Latency: 18, Faults: 2, Latencies: []int{10, 14, 18}},
		{Name: "met", Blocks: 2, Latency: 16, Faults: 1, Latencies: []int{12, 16}},
	}
	p, err := pinbcast.Build(pinbcast.BuildConfig{Files: files, Bandwidth: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngeneralized files (§4): program period %d, origin %s\n", p.Period, p.Origin)
	for i, f := range files {
		worst := make([]int, len(f.Latencies))
		for j := range worst {
			if worst[j], err = p.WorstLatency(i, j); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("  %-4s d⃗ = %v, worst retrieval with 0…%d faults %v\n", f.Name, f.Latencies, len(f.Latencies)-1, worst)
	}
}
