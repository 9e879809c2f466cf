package obs

import (
	"bytes"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the fixed registry the golden file snapshots:
// every exposition feature in one place — unlabeled and labeled
// counters, a negative gauge, histograms with and without labels, and
// label-value escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("pin_test_slots_total", "Slots served.").Add(42)
	r.Counter("pin_test_slots_total", "Slots served.", Label{"channel", "0"}).Add(7)
	r.Gauge("pin_test_depth", "Queue depth.").Set(-3)
	h := r.Histogram("pin_test_latency_slots", "Latency in slots.")
	for _, v := range []uint64{0, 1, 1, 3, 1000} {
		h.Observe(v)
	}
	r.Histogram("pin_test_latency_slots", "Latency in slots.", Label{"channel", "1"}).Observe(5)
	r.Counter("pin_test_weird_total", "Help with \\ backslash and\nnewline.",
		Label{"path", "a\\b\"c\nd"}).Inc()
	return r
}

func TestWriteToGolden(t *testing.T) {
	var buf bytes.Buffer
	n, err := goldenRegistry().WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWriteToDeterministic(t *testing.T) {
	r := goldenRegistry()
	var a, b bytes.Buffer
	if _, err := r.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two scrapes of an idle registry differ")
	}
}

// TestConcurrentScrape scrapes /metrics on an ops mux over a fresh
// registry while writers pound every instrument kind; run under -race
// this is the scrape-while-serving soundness proof. The families it
// reads exist only in that registry, so the mux serves the registry it
// is given, not the process default.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pin_test_busy_total", "busy")
	g := r.Gauge("pin_test_level", "level")
	h := r.Histogram("pin_test_lat", "lat")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(int64(i))
				h.Observe(uint64(i))
				// Registration races the scrape's family walk too.
				r.Counter("pin_test_busy_total", "busy", Label{"w", "x"}).Inc()
			}
		}(w)
	}
	srv := httptest.NewServer(NewOpsMux(r))
	defer srv.Close()
	for i := 0; i < 50; i++ {
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != ContentType {
			t.Fatalf("content type %q, want %q", ct, ContentType)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(body, []byte("# TYPE pin_test_busy_total counter\n")) {
			t.Fatalf("/metrics does not serve the mux's registry:\n%s", body)
		}
	}
	close(stop)
	wg.Wait()
}
