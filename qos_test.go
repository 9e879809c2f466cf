package pinbcast

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

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

// checkContract holds c to the station's served air through the oracle:
// from every start slot of one data cycle, replayed round and round, each
// of x's reads is retrieved within c.WorstLatencySlots against its rᵢ
// erasures, on every layout. It returns the worst case over the reads
// and starts.
func checkContract(t *testing.T, st *Station, x Txn, c Contract) (worst int) {
	t.Helper()
	cycle := cycleOnAir(t, st)
	for _, f := range st.Files() {
		if !slices.Contains(x.Reads, f.Name) {
			continue
		}
		for start := range cycle {
			got, ok := worstRetrieval(onAir(cycle), 1, start, c.WorstLatencySlots, f.Name, f.Blocks, f.Faults)
			if !ok {
				t.Fatalf("%s from slot %d with %d faults: not retrieved within the contract's %d slots", f.Name, start, f.Faults, c.WorstLatencySlots)
			}
			worst = max(worst, got.slots)
		}
	}
	return worst
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
	// The contract is honored on the air from every start slot, each read
	// against its r faults.
	t.Logf("worst case %d slots with faults, contract %d", checkContract(t, st, x, c), c.WorstLatencySlots)
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

// TestContractGuaranteeAcrossStrategies: a transaction AdmitTxn
// accepts is contracted exactly the window bound GuaranteeTxn computes
// for its reads at the station's bandwidth, the program the station
// broadcasts measures no worse than that bound, and the served air
// keeps the contract from every start slot.
func TestContractGuaranteeAcrossStrategies(t *testing.T) {
	x := Txn{Name: "probe", Reads: []string{"hot", "warm", "cold"}, Deadline: 10000}
	st := qosStation(t)
	c, err := st.AdmitTxn(x)
	if err != nil {
		t.Fatalf("AdmitTxn: %v", err)
	}
	checkContract(t, st, x, c)
	ok, bound, err := rtdb.GuaranteeTxn(st.Files(), st.Bandwidth(), x)
	if err != nil || !ok {
		t.Fatalf("GuaranteeTxn ok=%v err=%v", ok, err)
	}
	if c.WorstLatencySlots != bound {
		t.Fatalf("contracted %d slots, the window bound is %d", c.WorstLatencySlots, bound)
	}
	worst, err := TxnWorstLatency(st.Program(), x)
	if err != nil {
		t.Fatal(err)
	}
	if worst > bound {
		t.Fatalf("measured worst %d exceeds the window bound %d", worst, bound)
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
	checkContract(t, st, x, c)
	// Evicting a read item under contract is refused.
	if err := st.Evict("hot"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("evict read item: err = %v", err)
	}
}
