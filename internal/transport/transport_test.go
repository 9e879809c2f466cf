package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"pinbcast/internal/client"
	"pinbcast/internal/core"
	"pinbcast/internal/server"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("block payload")
	wire, err := AppendFrame(nil, 42, payload)
	if err != nil {
		t.Fatal(err)
	}
	if wire, err = AppendFrame(wire, 43, nil); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire)
	buf := make([]byte, 0, 64)
	slot, got, err := ReadFrame(r, buf)
	if err != nil || slot != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: slot=%d err=%v", slot, err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("payload that fits the buffer was not read into it")
	}
	slot, got, err = ReadFrame(r, buf)
	if err != nil || slot != 43 || got != nil {
		t.Fatalf("frame 2: slot=%d payload=%v err=%v", slot, got, err)
	}
}

func TestReadFrameShort(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader([]byte{1, 2}), nil); err == nil {
		t.Fatal("short header accepted")
	}
	wire, _ := AppendFrame(nil, 1, []byte("abcdef"))
	if _, _, err := ReadFrame(bytes.NewReader(wire[:len(wire)-2]), nil); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [8]byte
	hdr[4] = 0xff // declared length 0xff000000
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestWriteFrameOversized: the write side of the codec (AppendFrame)
// refuses a payload the read side would reject.
func TestWriteFrameOversized(t *testing.T) {
	if _, err := AppendFrame(nil, 0, make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// newBroadcast returns a fan-out plus the server whose slots the tests
// push through it.
func newBroadcast(t *testing.T) (*Fanout, *server.Server, map[string][]byte) {
	prog, err := core.FlatSpread([]core.FileSpec{
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	contents := map[string][]byte{
		"A": []byte("file A travels the network as dispersed blocks"),
		"B": []byte("file B too"),
	}
	srv, err := server.New(prog, contents)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return NewFanout(ln, DefaultWriteTimeout), srv, contents
}

// broadcast sends the server's first n slots through the fan-out.
func broadcast(f *Fanout, srv *server.Server, n int) error {
	for t := 0; t < n; t++ {
		if err := f.Send(t, srv.Emit(t)); err != nil {
			return err
		}
	}
	return nil
}

func TestBroadcastOverTCP(t *testing.T) {
	f, srv, contents := newBroadcast(t)
	defer f.Close()

	recv, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	waitClients(t, f, 1)

	sent := make(chan error, 1)
	go func() { sent <- broadcast(f, srv, 32) }()

	// Feed received frames into the standard client until both files
	// reconstruct.
	c := client.NewSubscriber(srv.Names())
	for _, file := range []string{"A", "B"} {
		if err := c.Add(client.Request{File: file}); err != nil {
			t.Fatal(err)
		}
	}
	for !c.Done() {
		slot, payload, err := recv.Next(2 * time.Second)
		if err != nil {
			t.Fatalf("receive: %v", err)
		}
		c.Observe(slot, payload)
	}
	for _, r := range c.TakeResults(nil) {
		if !r.Completed || !bytes.Equal(r.Data, contents[r.File]) {
			t.Fatalf("file %q corrupted over network", r.File)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastFanOutTwoClients(t *testing.T) {
	f, srv, contents := newBroadcast(t)
	defer f.Close()

	r1, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	waitClients(t, f, 2)

	sent := make(chan error, 1)
	go func() { sent <- broadcast(f, srv, 32) }()

	for i, recv := range []*Receiver{r1, r2} {
		c := client.NewSubscriber(srv.Names())
		if err := c.Add(client.Request{File: "A"}); err != nil {
			t.Fatal(err)
		}
		for !c.Done() {
			slot, payload, err := recv.Next(2 * time.Second)
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
			c.Observe(slot, payload)
		}
		if got := c.TakeResults(nil)[0].Data; !bytes.Equal(got, contents["A"]) {
			t.Fatalf("client %d got wrong bytes", i)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func TestDeadClientDropped(t *testing.T) {
	f, srv, _ := newBroadcast(t)
	defer f.Close()

	recv, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitClients(t, f, 1)
	recv.Close() // client goes away without telling anyone

	// Broadcasting enough data must eventually notice and drop it.
	if err := broadcast(f, srv, 4096); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for f.ClientCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead client never dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCloseUnblocksEverything(t *testing.T) {
	f, srv, _ := newBroadcast(t)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := broadcast(f, srv, 8); err != ErrClosed {
		t.Fatalf("broadcast after Close: err = %v, want ErrClosed", err)
	}
}

func TestFanoutSlowClientEvicted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFanout(ln, 50*time.Millisecond)
	defer f.Close()

	// A subscriber that connects and then never reads: once the kernel
	// buffers fill, writes to it must trip the deadline and evict it.
	conn, err := net.Dial("tcp", f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for f.ClientCount() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never accepted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// More frames than the per-subscriber queue holds: once the queue
	// and kernel buffers fill, either the producer's bounded wait or
	// the writer's deadline must evict the stalled client.
	payload := make([]byte, 512<<10)
	for i := 0; i < 2048 && f.Evicted() == 0; i++ {
		if err := f.Send(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	evictBy := time.Now().Add(5 * time.Second)
	for f.Evicted() == 0 {
		if time.Now().After(evictBy) {
			t.Fatal("stalled client never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", f.Evicted())
	}
	if f.ClientCount() != 0 {
		t.Fatalf("client count = %d after eviction", f.ClientCount())
	}
	// The broadcast itself is unaffected by having nobody to talk to.
	if err := f.Send(999, []byte("still on air")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1000, nil); err != ErrClosed {
		t.Fatalf("send after close: err = %v, want ErrClosed", err)
	}
}

func waitClients(t *testing.T, b *Fanout, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for b.ClientCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d clients connected", b.ClientCount(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
