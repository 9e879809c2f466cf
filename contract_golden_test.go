package pinbcast_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"pinbcast"
	"pinbcast/internal/workload"
)

// testdata/contract_golden.json was written by this file compiled into
// the last tree whose contract path ran on the dense files × period
// prefix tables and the start-slot sweep (01b5f70): goldenContracts
// marshalled with json.MarshalIndent(…, "", " "). It is evidence, not
// something to regenerate: a mismatch means a bound the control plane
// issues has moved. It was regenerated once, when FailChannel came to
// build one generation per survivor: every bound, staleness and failover
// entry stayed, and the */cluster-after EffectiveAt values fell to the
// one generation the failover now builds.

// goldenContracts negotiates on two catalogues — the IVHS scenario
// under every built-in layout, and the 256-file random catalogue of
// cmd/bdload's admit-churn workload under the pinwheel layout — and
// returns every contract issued along the way, stations first, then a
// two-channel cluster through a channel failure.
func goldenContracts(t *testing.T) map[string]any {
	out := map[string]any{}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	churn := pinbcast.FileSpec{Name: "churn", Blocks: 4, Latency: 40, Faults: 1}
	random := workload.Random(256, 8, 10, 80, 0, 1)
	for i := range random {
		random[i].Faults = 1
	}
	catalogues := []struct {
		name    string
		files   []pinbcast.FileSpec
		layouts []string
	}{
		{"ivhs", pinbcast.IVHSCatalog(4, 7), pinbcast.LayoutNames()},
		{"random256", random, []string{pinbcast.LayoutPinwheel}},
	}
	for _, cat := range catalogues {
		contents := pinbcast.CatalogContents(cat.files, 64, 7)
		n := len(cat.files)
		reads := []string{cat.files[0].Name, cat.files[n/3].Name, cat.files[n/2].Name, cat.files[n-1].Name}
		for _, layout := range cat.layouts {
			l, _ := pinbcast.LookupLayout(layout)
			st, err := pinbcast.New(
				pinbcast.WithFiles(cat.files...), pinbcast.WithContents(contents), pinbcast.WithLayout(l))
			check(err)
			var issued []pinbcast.Contract
			c, err := st.Negotiate(churn, make([]byte, 4*64))
			check(err)
			issued = append(issued, c)
			for k := range reads {
				c, err := st.AdmitTxn(pinbcast.Txn{Name: "txn" + reads[k], Reads: reads[k:], Deadline: 1 << 30})
				check(err)
				issued = append(issued, c)
			}
			check(st.ReleaseTxn(churn.Name))
			check(st.ReleaseTxn("txn" + reads[0]))
			check(st.Evict(churn.Name))
			c, err = st.AdmitTxn(pinbcast.Txn{Name: "after", Reads: reads[1:], Deadline: 1 << 30})
			check(err)
			out[cat.name+"/"+layout] = append(issued, c)
		}

		sub := cat.files[:min(n, 64)]
		cl, err := pinbcast.NewCluster(
			pinbcast.WithChannels(2),
			pinbcast.WithReplicas(2),
			pinbcast.WithClusterBandwidth(pinbcast.SufficientBandwidth(sub)),
			pinbcast.WithClusterFiles(sub...),
			pinbcast.WithClusterContents(contents),
		)
		check(err)
		var before []pinbcast.ClusterContract
		for k := 0; k < len(sub); k += 3 {
			cc, err := cl.Negotiate(pinbcast.Txn{
				Name: "c" + sub[k].Name, Reads: []string{sub[k].Name, sub[(k+5)%len(sub)].Name}, Deadline: 1 << 30})
			check(err)
			before = append(before, cc)
		}
		out[cat.name+"/cluster"] = before
		rep, err := cl.FailChannel(1)
		check(err)
		out[cat.name+"/failover"] = rep
		out[cat.name+"/cluster-after"] = cl.Contracts()
		out[cat.name+"/fetch-plan"] = cl.FetchPlan()
	}
	return out
}

func TestContractGoldenParity(t *testing.T) {
	got, err := json.MarshalIndent(goldenContracts(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/contract_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Fatalf("contracts differ from testdata/contract_golden.json; got:\n%s", got)
	}
}
