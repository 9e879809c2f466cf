package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pinbcast/internal/ida"
	"pinbcast/internal/transport"
)

// smokeConfig is the configuration CI's bdserved-smoke job boots.
const smokeConfig = `[station]
files = 4
slot_interval = "200us"
[listen]
ops = "127.0.0.1:9091"
[drain]
timeout = "20s"
`

// TestMaxBlockSize pins the limit to the wire format it is derived
// from: a block of maxBlockSize bytes frames, one byte more does not,
// and the rejection names the limit.
func TestMaxBlockSize(t *testing.T) {
	for _, tc := range []struct {
		size int
		ok   bool
	}{{maxBlockSize, true}, {maxBlockSize + 1, false}} {
		blocks, err := ida.DisperseFile(1, make([]byte, tc.size), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = transport.AppendFrame(nil, 0, blocks[0].MarshalInto(nil))
		if (err == nil) != tc.ok {
			t.Errorf("framing a %d-byte block: err = %v, want ok=%v", tc.size, err, tc.ok)
		}
		cfg := DefaultConfig()
		cfg.BlockSize = tc.size
		if err := cfg.validate(); (err == nil) != tc.ok {
			t.Errorf("validate with block_size %d: err = %v, want ok=%v", tc.size, err, tc.ok)
		} else if err != nil && !strings.Contains(err.Error(), "1048576") {
			t.Errorf("rejection does not name the frame limit: %v", err)
		}
	}
}

// TestContentsCap: the largest catalog whose worst-case contents and
// per-file bookkeeping fit maxContents passes, and one file more is
// refused naming both keys.
func TestContentsCap(t *testing.T) {
	for _, bs := range []int{1, 128, maxBlockSize} {
		cfg := DefaultConfig()
		cfg.BlockSize, cfg.Files = bs, maxContents/(maxFileBlocks*bs+fileOverhead)
		if err := cfg.validate(); err != nil {
			t.Fatalf("block_size %d, files %d: %v", bs, cfg.Files, err)
		}
		cfg.Files++
		if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "station.files") || !strings.Contains(err.Error(), "station.block_size") {
			t.Fatalf("block_size %d, files %d: err = %v, want the contents cap naming both keys", bs, cfg.Files, err)
		}
	}
}

// TestContentsCapCountsEachFile: at block_size 1 a file's contents are
// a few bytes but its spec and tables are not, so the 178 956 970 files
// a contents-only cap admits are refused at boot (exit 2), while the CI
// smoke config and a 16-file catalog still load. The daemon runs only
// on a config LoadConfig has refused, so a broken cap fails here
// without booting the catalog.
func TestContentsCapCountsEachFile(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, config string
		ok           bool
	}{
		{"per-file", "[station]\nfiles = 178956970\nblock_size = 1\n", false},
		{"smoke", smokeConfig, true},
		{"16 files", "[station]\nfiles = 16\nblock_size = 1024\n", true},
	} {
		path := filepath.Join(dir, tc.name+".toml")
		if err := os.WriteFile(path, []byte(tc.config), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); (err == nil) != tc.ok {
			t.Errorf("%s: LoadConfig err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		} else if tc.ok {
			continue
		}
		var errBuf bytes.Buffer
		if code := mainRun([]string{"-config", path}, nil, io.Discard, &errBuf); code != 2 || !strings.Contains(errBuf.String(), "contents cap") {
			t.Errorf("%s: exited %d (%q), want 2 and the contents cap", tc.name, code, errBuf.String())
		}
	}
}

// FuzzParseConfig: the loader never panics, whatever it accepts passes
// validate, and whatever it rejects says where — a line number, or the
// key whose value is out of range.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(smokeConfig))
	f.Add([]byte("[station]\nslot_interval = \"1ms\"  # pace\n"))
	f.Add([]byte("[station]\nblock_size = 2000000\n"))
	f.Add([]byte("[station]\nfiles = 1000000000000\nblock_size = 1048554\n"))
	f.Add([]byte("[station\nfiles 3\n[nope]\n = \nshard = \"a#b\" # c \" d\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := parseConfig(raw)
		if err == nil {
			if err := cfg.validate(); err != nil {
				t.Fatalf("accepted a config that fails validate: %v", err)
			}
			return
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "line ") && !strings.HasPrefix(msg, "station.") && !strings.HasPrefix(msg, "drain.") {
			t.Fatalf("rejection names neither a line nor a key: %v", err)
		}
	})
}
