package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestRingEmitSnapshotDrain keeps its name from when the ring also had
// a consuming Drain; Snapshot is the one reader now.
func TestRingEmitSnapshotDrain(t *testing.T) {
	r := NewRing(8)
	r.Emit(SlotServed, 0, 42, 255, 100, 0)
	r.Emit(ChannelHop, 2, 0, 0, 101, 7)
	r.Emit(FrameFlushed, -1, 0, 0, 102, 128)

	snap := r.Snapshot(nil)
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d events, want 3", len(snap))
	}
	if snap[0].Kind != SlotServed || snap[0].File != 42 || snap[0].Block != 255 || snap[0].T != 100 || snap[0].Channel != 0 {
		t.Fatalf("event 0 = %+v", snap[0])
	}
	if snap[1].Kind != ChannelHop || snap[1].Channel != 2 || snap[1].Aux != 7 {
		t.Fatalf("event 1 = %+v", snap[1])
	}
	if snap[2].Channel != -1 {
		t.Fatalf("no-channel sentinel decoded to %d, want -1", snap[2].Channel)
	}

	// Snapshot does not consume: a second one sees the same window,
	// plus whatever was emitted since.
	if again := r.Snapshot(nil); len(again) != 3 {
		t.Fatalf("second snapshot = %d events, want 3", len(again))
	}
	r.Emit(MissDetected, 1, 9, 0, 103, 0)
	if all := r.Snapshot(nil); len(all) != 4 || all[3].Kind != MissDetected {
		t.Fatalf("snapshot after new emit = %+v", all)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(SlotServed, 0, uint32(i), 0, uint64(i), 0)
	}
	snap := r.Snapshot(nil)
	if len(snap) != 4 {
		t.Fatalf("snapshot = %d events, want capacity 4", len(snap))
	}
	for i, ev := range snap {
		if want := uint64(6 + i); ev.T != want {
			t.Fatalf("event %d T = %d, want %d (oldest four overwritten)", i, ev.T, want)
		}
	}
	if r.head.Load() != 10 {
		t.Fatalf("emitted = %d, want 10", r.head.Load())
	}
	if snap[0].Seq != 7 {
		t.Fatalf("first surviving seq = %d, want 7", snap[0].Seq)
	}
}

// TestRingWriteJSONL pins the /debug/trace format: one object per line
// with the documented field names, kinds by wire name, seq strictly
// increasing, the overwritten span visible as the first seq, and the
// ring left intact by the dump.
func TestRingWriteJSONL(t *testing.T) {
	r := NewRing(4)
	r.Emit(SlotServed, -1, 3, 4, 0, 1)
	r.Emit(FrameFlushed, -1, 0, 0, 0, 128)
	var first bytes.Buffer
	if err := r.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"kind":"slot_served","channel":-1,"file":3,"block":4,"t":0,"aux":1}
{"seq":2,"kind":"frame_flushed","channel":-1,"file":0,"block":0,"t":0,"aux":128}
`
	if first.String() != want {
		t.Fatalf("dump =\n%swant\n%s", first.String(), want)
	}

	for i := 1; i <= 8; i++ {
		r.Emit(ChannelHop, 2, 0, 0, uint64(i), 0)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := r.WriteJSONL(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("a second dump differs: WriteJSONL consumed events")
	}
	var seqs []uint64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev struct {
			Seq     uint64 `json:"seq"`
			Kind    string `json:"kind"`
			Channel int    `json:"channel"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if ev.Kind != "channel_hop" || ev.Channel != 2 {
			t.Fatalf("line %q: want a channel_hop on channel 2", sc.Text())
		}
		if n := len(seqs); n > 0 && ev.Seq <= seqs[n-1] {
			t.Fatalf("seq %d after %d: not increasing", ev.Seq, seqs[n-1])
		}
		seqs = append(seqs, ev.Seq)
	}
	// Ten events through four slots: 1–6 are overwritten, 7–10 remain.
	if len(seqs) != 4 || seqs[0] != 7 || seqs[3] != 10 {
		t.Fatalf("seqs after overwrite = %v, want [7 8 9 10]", seqs)
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		if got := int(NewRing(tc.ask).mask) + 1; got != tc.want {
			t.Fatalf("NewRing(%d) holds %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestRingConcurrent hammers one ring from several writers while a
// reader snapshots continuously; under -race this proves the
// seq-validated publication protocol is clean, and the decoded events
// must all be internally consistent (File and Block mirror T for its
// writer).
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	const writers, perWriter = 4, 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]Event, 0, 64)
		for {
			buf = r.Snapshot(buf[:0])
			for _, ev := range buf {
				if uint64(ev.File) != ev.T || ev.Block != uint8(ev.T) {
					t.Errorf("torn event: File=%d Block=%d T=%d", ev.File, ev.Block, ev.T)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := uint64(w*perWriter + i)
				r.Emit(SlotServed, w, uint32(v), uint8(v), v, 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := r.head.Load(); got != writers*perWriter {
		t.Fatalf("emitted = %d, want %d", got, writers*perWriter)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		SlotServed:      "slot_served",
		FrameFlushed:    "frame_flushed",
		BlockCorrupted:  "block_corrupted",
		MissDetected:    "miss_detected",
		ChannelHop:      "channel_hop",
		FailoverReadmit: "failover_readmit",
		ContractRevoked: "contract_revoked",
		KindUnknown:     "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}
