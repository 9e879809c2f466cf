package pinbcast

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"pinbcast/internal/core"
	"pinbcast/internal/rtdb"
)

func qosStation(t *testing.T, opts ...Option) *Station {
	t.Helper()
	files := []FileSpec{
		{Name: "hot", Blocks: 2, Latency: 4, Faults: 1},
		{Name: "warm", Blocks: 3, Latency: 12},
		{Name: "cold", Blocks: 4, Latency: 24, Faults: 1},
	}
	contents := map[string][]byte{
		"hot":  []byte("hot item payload"),
		"warm": []byte("warm item payload, a bit longer"),
		"cold": []byte("cold item payload, the longest of the three by far"),
	}
	st, err := New(append([]Option{WithFiles(files...), WithContents(contents)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAdmitTxnIssuesHonoredContract(t *testing.T) {
	st := qosStation(t)
	x := Txn{Name: "report", Reads: []string{"hot", "cold"}, Deadline: 10000}
	c, err := st.AdmitTxn(x)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "report" || c.EffectiveAt != st.Generation() {
		t.Fatalf("contract = %+v", c)
	}
	// The pinwheel station contracts the analytic window bound.
	if want := st.Bandwidth() * 24; c.WorstLatencySlots != want {
		t.Fatalf("worst = %d, want window %d", c.WorstLatencySlots, want)
	}
	if c.StalenessSlots != c.WorstLatencySlots+st.Bandwidth()*24 {
		t.Fatalf("staleness = %d", c.StalenessSlots)
	}
	// The contract is honored from every start slot of the program.
	p := st.Program()
	for start := 0; start < p.Period; start++ {
		lat, err := TxnLatency(p, x, start)
		if err != nil {
			t.Fatal(err)
		}
		if lat > c.WorstLatencySlots {
			t.Fatalf("start %d: latency %d exceeds contract %d", start, lat, c.WorstLatencySlots)
		}
	}
	// Duplicate contract names are rejected.
	if _, err := st.AdmitTxn(x); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate: err = %v", err)
	}
}

func TestAdmitTxnRejections(t *testing.T) {
	st := qosStation(t)
	// Unmeetable deadline: admission failure.
	_, err := st.AdmitTxn(Txn{Name: "rush", Reads: []string{"cold"}, Deadline: 1})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("deadline 1: err = %v", err)
	}
	// Unknown read item and malformed transactions: spec failures.
	if _, err := st.AdmitTxn(Txn{Name: "ghost", Reads: []string{"missing"}, Deadline: 100}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown read: err = %v", err)
	}
	if _, err := st.AdmitTxn(Txn{Name: "", Reads: []string{"hot"}, Deadline: 100}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nameless: err = %v", err)
	}
	if len(st.Contracts()) != 0 {
		t.Fatalf("rejections left contracts behind: %v", st.Contracts())
	}
}

// TestAdmitTxnRejectionLeavesStationUnchanged pins the acceptance
// criterion: a live rejection changes nothing — not the broadcast
// schedule, not the generation, not previously issued contracts.
func TestAdmitTxnRejectionLeavesStationUnchanged(t *testing.T) {
	st := qosStation(t)
	good, err := st.AdmitTxn(Txn{Name: "steady", Reads: []string{"hot"}, Deadline: 10000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		<-slots
	}
	progBefore, genBefore := st.Program(), st.Generation()
	contractsBefore := st.Contracts()

	if _, err := st.AdmitTxn(Txn{Name: "rush", Reads: []string{"cold"}, Deadline: 1}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}

	if st.Program() != progBefore {
		t.Fatal("rejection replaced the broadcast program")
	}
	if st.Generation() != genBefore {
		t.Fatal("rejection advanced the generation")
	}
	if got := st.Contracts(); !reflect.DeepEqual(got, contractsBefore) {
		t.Fatalf("contracts changed: %v != %v", got, contractsBefore)
	}
	if !reflect.DeepEqual(contractsBefore, []Contract{good}) {
		t.Fatalf("prior contract lost: %v", contractsBefore)
	}
	// The broadcast keeps streaming across the rejection.
	s := <-slots
	if s.Generation != genBefore {
		t.Fatalf("stream switched generation to %d", s.Generation)
	}
}

func TestNegotiateIssuesFileContract(t *testing.T) {
	st := qosStation(t)
	f := FileSpec{Name: "radar", Blocks: 2, Latency: 30, Faults: 1}
	c, err := st.Negotiate(f, []byte("radar sweep frame"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "radar" {
		t.Fatalf("contract = %+v", c)
	}
	if want := st.Bandwidth() * 30; c.WorstLatencySlots != want {
		t.Fatalf("worst = %d, want window %d", c.WorstLatencySlots, want)
	}
	if c.EffectiveAt != st.Generation() {
		t.Fatalf("effective at %d, generation %d", c.EffectiveAt, st.Generation())
	}
	if len(st.Files()) != 4 {
		t.Fatalf("files = %v", st.Files())
	}
	// The negotiated file is contract-protected: evicting it is refused
	// until the contract is released.
	if err := st.Evict("radar"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("evict under contract: err = %v", err)
	}
	if err := st.ReleaseTxn("radar"); err != nil {
		t.Fatal(err)
	}
	if err := st.Evict("radar"); err != nil {
		t.Fatalf("evict after release: %v", err)
	}
	if err := st.ReleaseTxn("radar"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("double release: err = %v", err)
	}
}

func TestNegotiateRejectionLeavesStationUnchanged(t *testing.T) {
	st := qosStation(t)
	prior, err := st.AdmitTxn(Txn{Name: "steady", Reads: []string{"warm"}, Deadline: 10000})
	if err != nil {
		t.Fatal(err)
	}
	progBefore, filesBefore := st.Program(), st.Files()
	flood := FileSpec{Name: "flood", Blocks: 200, Latency: 10}
	if _, err := st.Negotiate(flood, []byte("raw video")); !errors.Is(err, ErrAdmission) {
		t.Fatalf("flood: err = %v", err)
	}
	if st.Program() != progBefore {
		t.Fatal("rejected negotiation replaced the program")
	}
	if !reflect.DeepEqual(st.Files(), filesBefore) {
		t.Fatal("rejected negotiation changed the file set")
	}
	if got := st.Contracts(); !reflect.DeepEqual(got, []Contract{prior}) {
		t.Fatalf("contracts changed: %v", got)
	}
	// A duplicate of an existing file is a spec failure, not admission.
	if _, err := st.Negotiate(FileSpec{Name: "hot", Blocks: 1, Latency: 8}, nil); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate file: err = %v", err)
	}
}

// TestContractGuaranteeAcrossStrategies is the cross-strategy property
// test: for every layout × scheduler combination, a transaction
// accepted by AdmitTxn never observes a measured latency
// above its contracted WorstLatencySlots, from any start slot.
func TestContractGuaranteeAcrossStrategies(t *testing.T) {
	layouts := []string{LayoutPinwheel, LayoutTiered, LayoutFlatSpread, LayoutFlatSequential}
	chains := [][]string{
		nil, // the portfolio
		{SchedulerExact},
		{SchedulerTwoDistinct, SchedulerExact}, // two-distinct fails over to exact
	}
	x := Txn{Name: "probe", Reads: []string{"hot", "warm", "cold"}, Deadline: 10000}
	for _, layout := range layouts {
		for ci, chain := range chains {
			opts := []Option{WithLayout(mustLayout(t, layout))}
			if chain != nil {
				opts = append(opts, WithSchedulers(mustSchedulers(t, chain...)...))
			}
			st := qosStation(t, opts...)
			c, err := st.AdmitTxn(x)
			if err != nil {
				t.Fatalf("%s/chain%d: AdmitTxn: %v", layout, ci, err)
			}
			p := st.Program()
			for start := 0; start < p.Period; start++ {
				lat, err := TxnLatency(p, x, start)
				if err != nil {
					t.Fatalf("%s/chain%d: %v", layout, ci, err)
				}
				if lat > c.WorstLatencySlots {
					t.Fatalf("%s/chain%d: start %d latency %d exceeds contract %d",
						layout, ci, start, lat, c.WorstLatencySlots)
				}
			}
			if layout == LayoutPinwheel {
				// The analytic admission-time guarantee holds on the
				// program the station actually broadcasts.
				ok, bound, err := rtdb.GuaranteeTxn(st.Files(), st.Bandwidth(), x)
				if err != nil || !ok {
					t.Fatalf("%s/chain%d: GuaranteeTxn ok=%v err=%v", layout, ci, ok, err)
				}
				if _, worst := boundsOf(t, p, x); worst > bound {
					t.Fatalf("%s/chain%d: measured worst %d exceeds analytic bound %d",
						layout, ci, worst, bound)
				}
			}
		}
	}
}

func boundsOf(t *testing.T, p *Program, x Txn) (mean, worst int) {
	t.Helper()
	w, err := TxnWorstLatency(p, x)
	if err != nil {
		t.Fatal(err)
	}
	return 0, w
}

// TestContractNeverBelowMeasuredWorst pins the soundness floor: even
// when a custom layout stamps a bandwidth on a program whose windows
// were never certified, an issued contract is at least the measured
// worst case on that exact program.
func TestContractNeverBelowMeasuredWorst(t *testing.T) {
	sequentialStamped := layoutFunc{"sequential-stamped", func(files []FileSpec, bandwidth int) (*Program, error) {
		p, err := core.FlatSequential(files)
		if err != nil {
			return nil, err
		}
		p.Bandwidth = 1 // claims a bandwidth without certifying windows
		return p, nil
	}}
	files := []FileSpec{
		{Name: "hot", Blocks: 2, Latency: 2},
		{Name: "big", Blocks: 8, Latency: 40},
	}
	st, err := New(
		WithFiles(files...),
		WithContents(map[string][]byte{"hot": []byte("hh"), "big": []byte("big contents")}),
		WithLayout(sequentialStamped),
	)
	if err != nil {
		t.Fatal(err)
	}
	x := Txn{Name: "probe", Reads: []string{"hot"}, Deadline: 1000}
	c, err := st.AdmitTxn(x)
	if err != nil {
		t.Fatal(err)
	}
	p := st.Program()
	measured, err := TxnWorstLatency(p, x)
	if err != nil {
		t.Fatal(err)
	}
	// The analytic bound on the stamped bandwidth would be 1·2 = 2,
	// far below what the back-to-back layout delivers.
	if measured <= 2 {
		t.Fatalf("measured worst %d does not discriminate", measured)
	}
	if c.WorstLatencySlots < measured {
		t.Fatalf("contract %d below measured worst %d", c.WorstLatencySlots, measured)
	}
	for start := 0; start < p.Period; start++ {
		lat, err := TxnLatency(p, x, start)
		if err != nil {
			t.Fatal(err)
		}
		if lat > c.WorstLatencySlots {
			t.Fatalf("start %d: latency %d exceeds contract %d", start, lat, c.WorstLatencySlots)
		}
	}
}

// TestContractsSurviveAdmissions checks the standing-obligation half of
// the contract discipline: an online Admit that would stretch an issued
// contract is refused; one that fits lands and the contract keeps
// holding on the new program.
func TestContractsSurviveAdmissions(t *testing.T) {
	st := qosStation(t)
	x := Txn{Name: "steady", Reads: []string{"hot"}, Deadline: 10000}
	c, err := st.AdmitTxn(x)
	if err != nil {
		t.Fatal(err)
	}
	// A small file passes density and keeps every window intact.
	if err := st.Admit(FileSpec{Name: "note", Blocks: 1, Latency: 20}, []byte("n")); err != nil {
		t.Fatal(err)
	}
	p := st.Program()
	for start := 0; start < p.Period; start++ {
		lat, err := TxnLatency(p, x, start)
		if err != nil {
			t.Fatal(err)
		}
		if lat > c.WorstLatencySlots {
			t.Fatalf("post-admit start %d: latency %d exceeds contract %d", start, lat, c.WorstLatencySlots)
		}
	}
	// Evicting a read item under contract is refused.
	if err := st.Evict("hot"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("evict read item: err = %v", err)
	}
}
