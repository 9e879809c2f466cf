package transport

import (
	"net"
	"testing"
	"time"
)

// TestNextReuseAllocationFree pins the zero-allocation receive path: a
// warm Next loop over a mixed idle/data frame stream must not allocate
// (header and payload both read through the receiver's frame buffer).
//
// testing.AllocsPerRun counts mallocs process-wide, so nothing else may
// run during the measurement: the whole stream is encoded up front and
// handed to the kernel in one Write before the first measured Next.
func TestNextReuseAllocationFree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// One frame larger than the receiver's seeded buffer exercises the
	// grow-once path during warm-up; the rest stay small so the stream
	// (~90 KiB) fits the socket buffers without a reader.
	const frames = 2000
	var stream []byte
	for i := 0; i < frames; i++ {
		var payload []byte
		switch {
		case i == 1:
			payload = make([]byte, 4096)
		case i%3 != 0: // every third slot is idle
			payload = make([]byte, 48)
		}
		if stream, err = AppendFrame(stream, i, payload); err != nil {
			t.Fatal(err)
		}
	}

	// Dial completes against the listen backlog, so the test accepts and
	// writes on its own goroutine: there is no writer to join.
	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Hold the whole stream in the send buffer whatever the reader does;
	// the deadline turns a stream that does not fit into a failure
	// instead of a hang.
	conn.(*net.TCPConn).SetWriteBuffer(1 << 20)
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(stream); err != nil {
		t.Fatalf("handing the stream to the kernel: %v", err)
	}

	for i := 0; i < 100; i++ { // warm the frame buffer
		if _, _, err := r.Next(0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, _, err := r.Next(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %v per frame, want 0", allocs)
	}
}
